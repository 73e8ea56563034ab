// E15: concurrent query-service throughput (thread-count sweep).
//
// The paper's decoders answer adjacency from two labels with no shared
// state, so query throughput should scale near-linearly with workers
// until memory bandwidth binds. This harness measures that claim on the
// service itself (snapshot store + batch engine + metrics, the real
// serving path, not a stripped loop):
//
//   1. generate a Chung-Lu power-law graph (default n = 10^6),
//   2. encode with the Theorem 3 thin/fat scheme (parallel encoder),
//   3. build a sharded CRC-verified snapshot,
//   4. for each thread count: drive Q queries through query_batch()
//      and record wall-clock throughput + the service's own latency
//      histogram,
//   5. verify a query sample against the graph oracle (a benchmark that
//      serves wrong answers fast is not a benchmark),
//   6. emit BENCH_service.json for CI's perf-trajectory artifact.
//
// Usage: bench_service [n] [avg_deg] [queries] [threads,threads,...]
//   defaults:          1000000  8.0    2000000  1,2,4,8
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "service/engine.h"
#include "service/snapshot.h"
#include "util/bits.h"
#include "util/random.h"

namespace {

using namespace plg;
using namespace plg::service;

struct SweepPoint {
  unsigned threads = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double speedup = 1.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  double view_hit_rate = 0.0;
};

std::vector<unsigned> parse_threads(const char* spec) {
  std::vector<unsigned> out;
  const char* p = spec;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(p, &end, 10);
    if (end == p) break;
    if (v > 0) out.push_back(static_cast<unsigned>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  if (out.empty()) out = {1, 2, 4, 8};
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000000;
  const double avg_deg = argc > 2 ? std::strtod(argv[2], nullptr) : 8.0;
  const std::size_t num_queries =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2000000;
  const std::vector<unsigned> thread_counts =
      parse_threads(argc > 4 ? argv[4] : "1,2,4,8");
  constexpr std::size_t kShards = 32;
  constexpr std::size_t kBatch = 8192;  // requests per query_batch call

  bench::header("E15: query service throughput (Chung-Lu, Theorem 3 labels)");

  Rng rng(bench::kSeed);
  const auto t_gen0 = std::chrono::steady_clock::now();
  const Graph g = chung_lu_power_law(n, 2.5, avg_deg, rng);
  const auto t_gen1 = std::chrono::steady_clock::now();
  std::printf("  graph: n=%zu m=%zu max-degree=%zu (%.1fs)\n",
              g.num_vertices(), g.num_edges(), g.max_degree(),
              std::chrono::duration<double>(t_gen1 - t_gen0).count());

  const std::uint64_t tau = static_cast<std::uint64_t>(avg_deg) + 4;
  const auto enc = thin_fat_encode_parallel(g, tau);
  const auto t_enc = std::chrono::steady_clock::now();
  std::printf("  encode: fat=%zu thin=%zu (%.1fs)\n", enc.num_fat,
              enc.num_thin,
              std::chrono::duration<double>(t_enc - t_gen1).count());

  bench::WorkloadInfo wl;
  wl.model = "chung-lu";
  wl.n = g.num_vertices();
  wl.m = g.num_edges();
  wl.alpha = 2.5;
  wl.avg_deg = avg_deg;
  wl.tau = tau;
  wl.width = id_width(n);
  wl.num_fat = enc.num_fat;
  wl.num_thin = enc.num_thin;

  const auto snapshot = Snapshot::build(enc.labeling, kShards);
  std::printf("  snapshot: %zu shards, %.1f MB (CRC-verified)\n",
              snapshot->num_shards(),
              static_cast<double>(snapshot->total_bytes()) / 1048576.0);

  // One fixed query stream reused for every thread count, so all sweep
  // points serve the identical workload.
  std::vector<QueryRequest> queries;
  queries.reserve(num_queries);
  {
    Rng qrng = stream_rng(bench::kSeed, 1);
    for (std::size_t i = 0; i < num_queries; ++i) {
      queries.push_back({qrng.next_below(n), qrng.next_below(n)});
    }
  }

  std::vector<SweepPoint> sweep;
  double base_qps = 0.0;
  std::printf("\n  %8s %10s %12s %9s %10s %10s %9s\n", "threads", "secs",
              "queries/s", "speedup", "p50(ns)", "p99(ns)", "plans");
  for (const unsigned t : thread_counts) {
    QueryService svc(snapshot, {.threads = t, .chunk = 1024});

    // Warm-up pass (first touch of shard pages and CRCs), then the
    // measured pass over the full stream in kBatch slices.
    {
      std::vector<QueryRequest> warm(
          queries.begin(),
          queries.begin() +
              static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                  kBatch, queries.size())));
      svc.query_batch(warm);
    }

    std::uint64_t positives = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t off = 0; off < queries.size(); off += kBatch) {
      const std::size_t len = std::min(kBatch, queries.size() - off);
      const std::vector<QueryRequest> slice(
          queries.begin() + static_cast<std::ptrdiff_t>(off),
          queries.begin() + static_cast<std::ptrdiff_t>(off + len));
      const auto results = svc.query_batch(slice);
      for (const QueryResult& r : results) positives += r.adjacent ? 1 : 0;
    }
    const auto t1 = std::chrono::steady_clock::now();

    SweepPoint pt;
    pt.threads = t;
    pt.seconds = std::chrono::duration<double>(t1 - t0).count();
    pt.qps = static_cast<double>(queries.size()) / pt.seconds;
    if (base_qps == 0.0) base_qps = pt.qps;
    pt.speedup = pt.qps / base_qps;
    const ServiceStats stats = svc.stats();
    pt.p50_ns = stats.latency_quantile_ns(0.50);
    pt.p99_ns = stats.latency_quantile_ns(0.99);
    pt.view_hit_rate =
        stats.queries == 0 ? 0.0
                           : static_cast<double>(stats.view_hits) /
                                 static_cast<double>(stats.queries);
    sweep.push_back(pt);
    std::printf("  %8u %10.2f %12.0f %8.2fx %10" PRIu64 " %10" PRIu64
                " %8.1f%%\n",
                pt.threads, pt.seconds, pt.qps, pt.speedup, pt.p50_ns,
                pt.p99_ns, 100.0 * pt.view_hit_rate);
    (void)positives;
  }

  // Correctness spot check: a sample of answers vs. the graph oracle.
  {
    QueryService svc(snapshot, {.threads = thread_counts.back()});
    Rng srng = stream_rng(bench::kSeed, 2);
    std::size_t checked = 0, wrong = 0;
    std::vector<QueryRequest> sample;
    for (int i = 0; i < 20000; ++i) {
      sample.push_back({srng.next_below(n), srng.next_below(n)});
    }
    const auto results = svc.query_batch(sample);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const bool oracle = sample[i].u != sample[i].v &&
                          g.has_edge(static_cast<Vertex>(sample[i].u),
                                     static_cast<Vertex>(sample[i].v));
      ++checked;
      if (results[i].adjacent != oracle) ++wrong;
    }
    std::printf("\n  oracle check: %zu sampled, %zu wrong\n", checked, wrong);
    if (wrong != 0) return 1;
  }

  // Overload scenario: bounded queues + per-batch deadlines under more
  // submitters than workers. Tracks how the service degrades — how much
  // is shed or expired, and what p99 looks like for what IS answered —
  // so the perf trajectory catches regressions in overload behavior,
  // not just peak throughput.
  std::uint64_t ov_ok = 0, ov_shed = 0, ov_deadline = 0;
  std::uint64_t ov_p99_ns = 0;
  const unsigned ov_threads = thread_counts.back();
  {
    QueryService svc(snapshot, {.threads = ov_threads,
                                .chunk = 512,
                                .queue_cap = 2,
                                .shed_policy = ShedPolicy::kDropOldest});
    const std::size_t ov_queries =
        std::min<std::size_t>(queries.size(), 500000);
    const unsigned submitters = ov_threads * 2;  // oversubscribe on purpose
    std::vector<std::uint64_t> ok(submitters), shed(submitters),
        expired(submitters);
    std::vector<std::thread> threads;
    for (unsigned s = 0; s < submitters; ++s) {
      threads.emplace_back([&, s] {
        for (std::size_t off = s * kBatch; off < ov_queries;
             off += submitters * kBatch) {
          const std::size_t len = std::min(kBatch, ov_queries - off);
          const std::vector<QueryRequest> slice(
              queries.begin() + static_cast<std::ptrdiff_t>(off),
              queries.begin() + static_cast<std::ptrdiff_t>(off + len));
          BatchOptions bopt;
          bopt.deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(20);
          const auto results = svc.query_batch(slice, bopt);
          for (const QueryResult& r : results) {
            if (r.status == QueryStatus::kOk) ++ok[s];
            if (r.status == QueryStatus::kOverloaded) ++shed[s];
            if (r.status == QueryStatus::kDeadlineExceeded) ++expired[s];
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (unsigned s = 0; s < submitters; ++s) {
      ov_ok += ok[s];
      ov_shed += shed[s];
      ov_deadline += expired[s];
    }
    ov_p99_ns = svc.stats().latency_quantile_ns(0.99);
    std::printf("\n  overload (%u submitters, %u workers, cap=2, 20ms "
                "deadline): ok=%" PRIu64 " shed=%" PRIu64 " deadline=%" PRIu64
                " p99=%" PRIu64 "ns\n",
                submitters, ov_threads, ov_ok, ov_shed, ov_deadline,
                ov_p99_ns);
  }

  // Machine-readable artifact for CI's perf trajectory.
  const char* out_path = "BENCH_service.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\"bench\":\"service\",%s,"
                 "\"queries\":%zu,\"batch\":%zu,\"shards\":%zu,\"sweep\":[",
                 bench::workload_json(wl).c_str(), queries.size(), kBatch,
                 kShards);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& pt = sweep[i];
      std::fprintf(f,
                   "%s{\"threads\":%u,\"seconds\":%.3f,\"qps\":%.0f,"
                   "\"speedup\":%.3f,\"p50_ns\":%" PRIu64 ",\"p99_ns\":%" PRIu64
                   ",\"view_hit_rate\":%.3f}",
                   i == 0 ? "" : ",", pt.threads, pt.seconds, pt.qps,
                   pt.speedup, pt.p50_ns, pt.p99_ns, pt.view_hit_rate);
    }
    std::fprintf(f,
                 "],\"overload\":{\"workers\":%u,\"queue_cap\":2,"
                 "\"shed_policy\":\"drop-oldest\",\"deadline_ms\":20,"
                 "\"ok\":%" PRIu64 ",\"shed\":%" PRIu64
                 ",\"deadline_exceeded\":%" PRIu64 ",\"p99_ns\":%" PRIu64 "}}\n",
                 ov_threads, ov_ok, ov_shed, ov_deadline, ov_p99_ns);
    std::fclose(f);
    std::printf("  wrote %s\n", out_path);
  }
  return 0;
}
