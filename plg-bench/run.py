#!/usr/bin/env python3
"""plg-bench entry point: build the benchmark from source, then run it.

    python3 plg-bench/run.py --workload adj-frames --seed 1 --seconds 20 --trace 0
    python3 plg-bench/run.py --smoke      # tiny self-test of every workload

Run from the root of a checkout. The program is built with CMake from
plg-bench/CMakeLists.txt (which compiles ../src) into .bench_build/, and
store files are written under .bench_build/work/ and removed afterwards.
The last line of standard output is the result object; see README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "plg-bench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "plg_bench")
WORKLOADS = ["adj-frames", "adj-bulk", "dist-f2", "adj-router"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("plg-bench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        os.makedirs(BUILD, exist_ok=True)
        rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], **quiet)
        if rc != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(["cmake", "--build", BUILD, "--target", "plg_bench",
                          "-j", jobs], **quiet)
    if rc != 0 or not os.path.isfile(BINARY):
        fail("build failed")


def source_id():
    """The git commit when there is one, else a digest of src/ and plg-bench/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "plg-bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, tiny=False, echo=True):
    """Runs the program once; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", WORK, "--source", source_id()]
    if tiny:
        cmd.append("--tiny")
    # Own process group, so a timeout also stops the set-up children the
    # program forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(WORK, ignore_errors=True)
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(WORK, ignore_errors=True)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise AssertionError("no %r line" % tag)


def smoke():
    """Every workload (also dist-f2, which BENCHMARK.json does not list),
    untraced and traced, at tiny size: every metric in
    BENCHMARK.json is printed with its unit, the report carries all seven
    end-to-end metrics, ratios carry their base, and no ledger self time
    or ratio base is negative."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    report_names = {"qps", "frame_p50_us", "frame_p99_us", "cpu_ns_per_query",
                    "error_rate", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, lines = run_once(workload, 7, 1, trace, tiny=True, echo=False)
            where = "%s trace %d" % (workload, trace)
            assert rc == 0, "%s: exit %d" % (where, rc)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1, where
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units[trace], "%s: %s != %s" % (where, got, units[trace])
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (where, k)
            mix = tagged(lines, "mix")
            assert mix["queries"] > 0 and mix["positive_share"] > 0, where
            tagged(lines, "provenance")
            if trace == 0:
                report = tagged(lines, "report")
                assert set(report["metrics"]) == report_names, where
                assert report["metrics"]["error_rate"]["base"]["attempted"] > 0
                continue
            ledger = tagged(lines, "ledger")
            assert ledger["min_self_s"] >= 0, where
            for layer in ledger["layers"].values():
                assert layer["self_s"] >= 0 and layer["total_s"] >= 0, where
            for name, m in ledger["metrics"].items():
                assert m["unit"], (where, name)
                if m["unit"] == "ratio":
                    assert "base" in m, (where, name)
                for base in m.get("base", {}).values():
                    assert base >= 0, (where, name)
            print("smoke ok: %s" % where)
    print("smoke ok: all workloads")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny self-test of every workload and the traced run")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.smoke:
        smoke()
        return 0
    rc, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
