// plg-bench: one benchmark for the whole serving stack, end to end over
// loopback TCP, plus a traced run that attributes a query's cost to the
// layer it crosses. See README.md for the workloads, the metrics and how
// to reproduce a run; run.py builds this program and passes the flags.
//
//   plg_bench --workload W --seed S --seconds T --trace 0|1
//             [--tiny] [--work DIR] [--source ID]
//
// Output: a `provenance`, a `mix` and a `report` (trace 0) or `ledger`
// (trace 1) line, each a tag and one JSON object, then the result as the
// last line: {"correct", "attempted", "failed", "metrics"}. A wrong
// answer anywhere prints correct=false and exits 1.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "core/distance_scheme.h"
#include "core/label_store.h"
#include "core/label_view.h"
#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "graph/algorithms.h"
#include "ledger.h"
#include "querygen.h"
#include "service/engine.h"
#include "service/frame.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "service/snapshot.h"
#include "store/store_writer.h"
#include "util/random.h"

namespace plgbench {
namespace {

using plg::Graph;
using plg::Labeling;
using plg::Vertex;
using plg::service::NetClient;
using plg::service::NetResponse;
using plg::service::NetServer;
using plg::service::QueryKind;
using plg::service::QueryRequest;
using plg::service::QueryResult;
using plg::service::QueryService;
using plg::service::ServiceOptions;
using plg::service::Snapshot;
namespace wire = plg::service::wire;

constexpr double kAlpha = 2.5;
constexpr double kAvgDegree = 8.0;
constexpr std::size_t kStoreShards = 16;  // the `plgtool serve` default
constexpr unsigned kServerWorkers = 2;
constexpr unsigned kClients = 2;

// ------------------------------------------------------------ workloads

struct WorkloadSpec {
  std::string name;
  QueryKind kind = QueryKind::kAdjacency;
  std::size_t batch = 64;
  std::size_t n = 0;
  std::uint64_t tau_or_f = 0;  ///< tau for adjacency, hop bound f for DIST
  int file_version = 3;        ///< 2: v2 file, heap admission; 3: mmap
  bool router = false;         ///< serve through a 3-node R=2 Router
  MixSpec mix;
  std::size_t pool_queries = 0;  ///< distinct queries in the stream
  int setup_reps = 3;  ///< set-ups timed per run; setup_s is their median
};

bool make_spec(const std::string& name, bool tiny, WorkloadSpec& w) {
  w.name = name;
  MixSpec degree;
  degree.endpoints = Endpoints::kDegree;
  degree.positive_frac = 0.10;
  MixSpec strata;
  strata.endpoints = Endpoints::kStrata;
  strata.positive_frac = 0.10;
  strata.out_of_range_frac = 0.01;
  if (name == "adj-frames" || name == "adj-router") {
    w.router = name == "adj-router";
    w.batch = w.router ? 512 : 64;
    w.n = tiny ? 1u << 11 : 1u << 17;
    w.tau_or_f = 12;
    w.file_version = w.router ? 3 : 2;
    w.mix = degree;
    w.pool_queries = tiny ? 1u << 13 : 1u << 18;
    w.setup_reps = 5;
  } else if (name == "adj-bulk") {
    w.batch = 2048;
    w.n = tiny ? 1u << 12 : 1u << 21;
    w.tau_or_f = 32;
    w.mix = strata;
    w.pool_queries = tiny ? 1u << 14 : 1u << 20;
    w.setup_reps = 3;
  } else if (name == "dist-f2") {
    w.kind = QueryKind::kDistance;
    w.batch = 256;
    w.n = tiny ? 1u << 10 : 1u << 16;
    w.tau_or_f = 2;
    w.mix.endpoints = Endpoints::kStrata;
    w.mix.dist_strata = true;
    w.pool_queries = tiny ? 1u << 12 : 1u << 16;
    w.setup_reps = 3;
  } else {
    return false;
  }
  if (tiny) w.setup_reps = 2;
  return true;
}

// ------------------------------------------------------------- helpers

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Host-wide CPU time and the part of it the hypervisor stole from this
/// VM, in ticks, from /proc/stat. Sampled at window boundaries so a run
/// slowed by other tenants can be told apart from a slow program.
struct CpuStat {
  double total = 0;
  double steal = 0;
};

CpuStat read_cpu_stat() {
  CpuStat st;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && (in >> v); ++i) {
    st.total += v;
    if (i == 7) st.steal = v;
  }
  return st;
}

double steal_share(const CpuStat& a, const CpuStat& b) {
  return b.total > a.total ? (b.steal - a.steal) / (b.total - a.total) : 0.0;
}

/// Reads `"key":<number>` from a flat stats JSON line; 0 when absent, so
/// a counter a later version drops reads as zero instead of breaking.
double json_number(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t at = json.find(pat);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + pat.size(), nullptr);
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// One named metric with its unit, and for a ratio the count it is over.
struct Metric {
  Metric(std::string n, double v, std::string u, std::string bn = {},
         double b = 0)
      : name(std::move(n)), value(v), unit(std::move(u)),
        base_name(std::move(bn)), base(b) {}
  std::string name;
  double value;
  std::string unit;
  std::string base_name;  ///< empty: not a ratio
  double base;
};

std::string metric_json(const Metric& m) {
  std::string s = "\"" + m.name + "\":{\"value\":" + fmt("%.9g", m.value) +
                  ",\"unit\":\"" + m.unit + "\"";
  if (!m.base_name.empty()) {
    s += ",\"base\":{\"" + m.base_name + "\":" + fmt("%.0f", m.base) + "}";
  }
  return s + "}";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (const Metric& m : ms) s += (s.size() > 1 ? "," : "") + metric_json(m);
  return s + "}";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ------------------------------------------------------------ traffic

/// The seeded query stream, cut into frames, with its expected answers.
struct Traffic {
  QueryKind kind = QueryKind::kAdjacency;
  wire::Verb verb = wire::Verb::kAdjBatch;
  std::size_t batch = 0;
  std::vector<Query> qs;
  std::vector<Expect> ex;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> frames;
  std::vector<std::vector<QueryRequest>> reqs;

  std::size_t num_frames() const { return frames.size(); }
  std::size_t frame_begin(std::size_t f) const { return f * batch; }
};

/// Counts of one phase's answers against the expectations.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;
  std::uint64_t failed = 0;  ///< not answered with the expected status
  std::uint64_t wrong = 0;   ///< answered, with the wrong answer
  std::uint64_t out_of_range = 0;  ///< correct kRange answers among correct

  void add(const Tally& o) {
    attempted += o.attempted;
    correct += o.correct;
    failed += o.failed;
    wrong += o.wrong;
    out_of_range += o.out_of_range;
  }
};

std::atomic<bool> g_reported_wrong{false};

/// Judges one answer given as a wire result code plus distance. A kRange
/// answer to a deliberately out-of-range id is the correct answer.
void judge(QueryKind kind, const Expect& e, wire::ResultCode code,
           std::int64_t dist, const Query& q, Tally& t) {
  t.attempted += 1;
  const bool answered =
      code == wire::ResultCode::kYes || code == wire::ResultCode::kNo;
  bool right = false;
  if (!e.in_range) {
    right = code == wire::ResultCode::kRange;
    t.out_of_range += right ? 1 : 0;
  } else if (answered) {
    const bool yes = code == wire::ResultCode::kYes;
    right = kind == QueryKind::kAdjacency
                ? yes == (e.value != 0)
                : (e.value >= 0 ? yes && dist == e.value : !yes);
  }
  if (right) {
    t.correct += 1;
  } else if (!answered) {
    t.failed += 1;
  } else {
    t.wrong += 1;
    if (!g_reported_wrong.exchange(true)) {
      std::fprintf(stderr,
                   "plg-bench: WRONG ANSWER for (%llu,%llu): code %d dist %lld,"
                   " expected %s %lld\n",
                   static_cast<unsigned long long>(q.u),
                   static_cast<unsigned long long>(q.v), static_cast<int>(code),
                   static_cast<long long>(dist),
                   e.in_range ? "value" : "kRange",
                   static_cast<long long>(e.value));
    }
  }
}

wire::ResultCode code_of(QueryKind kind, const QueryResult& r) {
  using plg::service::QueryStatus;
  switch (r.status) {
    case QueryStatus::kOk:
      if (kind == QueryKind::kAdjacency) {
        return r.adjacent ? wire::ResultCode::kYes : wire::ResultCode::kNo;
      }
      return r.distance >= 0 ? wire::ResultCode::kYes : wire::ResultCode::kNo;
    case QueryStatus::kOutOfRange: return wire::ResultCode::kRange;
    case QueryStatus::kCorrupt: return wire::ResultCode::kCorrupt;
    case QueryStatus::kOverloaded: return wire::ResultCode::kOverloaded;
    case QueryStatus::kDeadlineExceeded: return wire::ResultCode::kDeadline;
    case QueryStatus::kUnavailable: return wire::ResultCode::kUnavailable;
  }
  return wire::ResultCode::kCorrupt;
}

void judge_results(const Traffic& tr, std::size_t f,
                   const std::vector<QueryResult>& rs, Tally& t) {
  const std::size_t b = tr.frame_begin(f);
  if (rs.size() != tr.reqs[f].size()) {
    t.attempted += tr.reqs[f].size();
    t.failed += tr.reqs[f].size();
    return;
  }
  for (std::size_t i = 0; i < rs.size(); ++i) {
    judge(tr.kind, tr.ex[b + i], code_of(tr.kind, rs[i]), rs[i].distance,
          tr.qs[b + i], t);
  }
}

/// Judges one wire response; false on a malformed or mismatched frame.
bool judge_response(const Traffic& tr, std::size_t f, std::uint32_t id,
                    const NetResponse& resp, Tally& t) {
  const std::size_t n = tr.frames[f].size();
  const std::size_t rec =
      tr.verb == wire::Verb::kDistBatch ? wire::kDistRecordSize : 1;
  if (resp.header.verb != tr.verb || resp.header.request_id != id ||
      resp.header.status != static_cast<std::uint8_t>(wire::FrameStatus::kOk) ||
      resp.payload.size() != n * rec) {
    t.attempted += n;
    t.failed += n;
    return false;
  }
  const std::size_t b = tr.frame_begin(f);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* p = resp.payload.data() + i * rec;
    const std::int64_t dist =
        rec > 1 ? static_cast<std::int64_t>(wire::get_u64(p + 1)) : -1;
    judge(tr.kind, tr.ex[b + i], static_cast<wire::ResultCode>(p[0]), dist,
          tr.qs[b + i], t);
  }
  return true;
}

// ---------------------------------------------------------- deployment

/// One serving deployment: a single QueryService node, or three nodes
/// behind a Router, with the NetServer the clients talk to in front.
struct Deployment {
  struct Node {
    std::shared_ptr<const Snapshot> snap;
    std::unique_ptr<QueryService> svc;
    std::unique_ptr<NetServer> server;
  };
  std::shared_ptr<const Snapshot> snap;  // single node
  std::unique_ptr<QueryService> svc;
  std::vector<Node> nodes;               // router
  std::unique_ptr<plg::cluster::Router> router;
  std::unique_ptr<NetServer> front;
  std::uint64_t store_bytes = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (front) {
      front->stop();
      front->join();
    }
    front.reset();
    router.reset();
    for (Node& nd : nodes) {
      nd.server->stop();
      nd.server->join();
      nd.server.reset();
    }
  }

  std::vector<std::shared_ptr<const Snapshot>> snapshots() const {
    std::vector<std::shared_ptr<const Snapshot>> out;
    if (snap) out.push_back(snap);
    for (const Node& nd : nodes) out.push_back(nd.snap);
    return out;
  }
};

struct Encoded {
  Labeling labeling;
  std::uint64_t threshold = 0;
  std::size_t num_fat = 0;
  std::size_t num_thin = 0;
};

Encoded encode(const WorkloadSpec& w, const Graph& g) {
  Encoded e;
  if (w.kind == QueryKind::kAdjacency) {
    plg::ThinFatEncoding enc = plg::thin_fat_encode(g, w.tau_or_f);
    e.labeling = std::move(enc.labeling);
    e.threshold = enc.threshold;
    e.num_fat = enc.num_fat;
    e.num_thin = enc.num_thin;
  } else {
    plg::DistanceEncoding enc = plg::DistanceScheme(w.tau_or_f, kAlpha).encode(g);
    e.labeling = std::move(enc.labeling);
    e.threshold = enc.threshold;
    e.num_fat = enc.num_fat;
    e.num_thin = g.num_vertices() - enc.num_fat;
  }
  return e;
}

std::uint64_t file_bytes(const std::string& p) {
  std::error_code ec;
  const auto s = std::filesystem::file_size(p, ec);
  return ec ? 0 : static_cast<std::uint64_t>(s);
}

plg::cluster::ClusterConfig cluster_config() {
  plg::cluster::ClusterConfig cfg;
  cfg.nodes.assign(3, plg::cluster::NodeEndpoint{});
  cfg.replication = 2;
  return cfg;
}

/// One set-up: encode, store write, admission, server start, each a span
/// under a "setup" root. Returns the deployment and the labeling.
std::unique_ptr<Deployment> set_up(const WorkloadSpec& w, const Graph& g,
                                   const std::string& dir, Ledger& L,
                                   Encoded& enc_out, int& root) {
  auto dep = std::make_unique<Deployment>();
  root = L.begin("setup");

  int s = L.begin("core.encode", root);
  Encoded enc = encode(w, g);
  L.end(s, g.num_vertices());

  const std::string path = dir + "/served.plgl";
  plg::cluster::ClusterConfig cfg = cluster_config();
  s = L.begin("store.write", root);
  if (w.router) {
    for (const auto& info :
         plg::cluster::write_partitions(enc.labeling, cfg, dir, kStoreShards)) {
      dep->store_bytes += file_bytes(info.path);
    }
  } else if (w.file_version == 2) {
    plg::LabelStore::save_file(path, enc.labeling);
    dep->store_bytes = file_bytes(path);
  } else {
    plg::store::StoreWriter::write_file(path, enc.labeling, kStoreShards);
    dep->store_bytes = file_bytes(path);
  }
  L.end(s, dep->store_bytes);

  s = L.begin("store.admit", root);
  if (w.router) {
    dep->nodes.resize(cfg.num_nodes());
    for (std::uint32_t i = 0; i < cfg.num_nodes(); ++i) {
      dep->nodes[i].snap = Snapshot::from_file(
          plg::cluster::partition_path(dir, i), kStoreShards,
          plg::StoreVerify::kStrict, /*allow_quarantine=*/true);
    }
  } else {
    dep->snap = Snapshot::from_file(path, kStoreShards, plg::StoreVerify::kStrict,
                                    /*allow_quarantine=*/true);
  }
  L.end(s, g.num_vertices());

  s = L.begin("service.start", root);
  ServiceOptions opt;
  opt.kind = w.kind;
  if (w.router) {
    opt.threads = 1;
    for (std::uint32_t i = 0; i < cfg.num_nodes(); ++i) {
      Deployment::Node& nd = dep->nodes[i];
      nd.svc = std::make_unique<QueryService>(nd.snap, opt);
      nd.server = std::make_unique<NetServer>(*nd.svc, plg::service::NetServerOptions{});
      nd.server->start();
      cfg.nodes[i] = plg::cluster::NodeEndpoint{"127.0.0.1", nd.server->port()};
    }
    plg::cluster::RouterOptions ropt;
    ropt.kind = w.kind;
    dep->router = std::make_unique<plg::cluster::Router>(cfg, ropt);
    dep->front = std::make_unique<NetServer>(*dep->router,
                                             plg::service::NetServerOptions{});
  } else {
    opt.threads = kServerWorkers;
    dep->svc = std::make_unique<QueryService>(dep->snap, opt);
    dep->front =
        std::make_unique<NetServer>(*dep->svc, plg::service::NetServerOptions{});
  }
  dep->front->start();
  L.end(s, 1);
  L.end(root);

  enc_out = std::move(enc);
  return dep;
}

/// Durations of one set-up and of its four steps, in seconds.
struct SetupTimes {
  double total = 0, encode = 0, write = 0, admit = 0, start = 0;
};

SetupTimes times_of(const Ledger& L, int root) {
  SetupTimes t;
  const auto dur = [&](int i) {
    return seconds_between(L.span(i).start_ns, L.span(i).end_ns);
  };
  t.total = dur(root);
  for (int i = root + 1; i < static_cast<int>(L.size()); ++i) {
    const Span& sp = L.span(i);
    if (sp.parent != root) continue;
    if (sp.name == "core.encode") t.encode = dur(i);
    if (sp.name == "store.write") t.write = dur(i);
    if (sp.name == "store.admit") t.admit = dur(i);
    if (sp.name == "service.start") t.start = dur(i);
  }
  return t;
}

/// Times one set-up in a forked child, which starts from the parent's
/// memory (the graph) like a fresh server process and exits afterwards,
/// so repeated set-ups neither share allocator state with the serving
/// process nor inflate its peak RSS. Must run before the parent starts
/// any thread. Returns false if the child failed.
bool set_up_in_child(const WorkloadSpec& w, const Graph& g,
                     const std::string& dir, SetupTimes& out) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    SetupTimes t;
    int rc = 0;
    try {
      std::filesystem::create_directories(dir);
      Ledger l;
      Encoded e;
      int root = -1;
      std::unique_ptr<Deployment> d = set_up(w, g, dir, l, e, root);
      t = times_of(l, root);
      d.reset();
      std::filesystem::remove_all(dir);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "plg-bench: set-up failed: %s\n", ex.what());
      rc = 1;
    }
    const bool sent = ::write(fds[1], &t, sizeof t) == static_cast<ssize_t>(sizeof t);
    std::_Exit(rc == 0 && sent ? 0 : 1);
  }
  ::close(fds[1]);
  std::size_t got = 0;
  auto* p = reinterpret_cast<char*>(&out);
  while (got < sizeof out) {
    const ssize_t r = ::read(fds[0], p + got, sizeof out - got);
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return got == sizeof out && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---------------------------------------------------------- the loops

struct alignas(64) ClientCounter {
  std::atomic<std::uint64_t> correct{0};
};

/// One sampling window of a loop.
struct Window {
  std::int64_t end_ns = 0;
  double seconds = 0;
  std::uint64_t correct = 0;
  double cpu_s = 0;   ///< process user+sys CPU time
  double steal = 0;   ///< share of host CPU time the hypervisor stole
};

struct LoopResult {
  Tally tally;
  /// Per frame: (completion time in ns, round trip in µs), in completion order.
  std::vector<std::pair<std::int64_t, double>> frames;
  std::vector<Window> windows;
  double steal = 0;  ///< share of host CPU time stolen over the whole loop
  double seconds = 0;
  bool transport_ok = true;
};

/// Closed loop: each client thread sends its next frame only after the
/// previous reply. The main thread samples counters and CPU time at each
/// window boundary. With a ledger, every frame is a span under `parent`
/// and its trace id is the frame's request id.
LoopResult run_loop(std::vector<NetClient>& clients, const Traffic& tr,
                    double seconds, int windows, std::vector<std::size_t>& cursor,
                    std::uint32_t& next_id, Ledger* ledger, int parent) {
  const std::size_t nc = clients.size();
  std::vector<ClientCounter> counters(nc);
  std::vector<Tally> tallies(nc);
  std::vector<std::vector<std::pair<std::int64_t, double>>> rtts(nc);
  std::vector<Ledger> ledgers(nc);
  std::vector<char> ok(nc, 1);
  std::atomic<bool> stop{false};

  LoopResult out;
  const std::int64_t t0 = now_ns();
  const double cpu0 = cpu_seconds();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < nc; ++c) {
    threads.emplace_back([&, c] {
      std::size_t f = cursor[c];
      std::uint32_t id = next_id + static_cast<std::uint32_t>(c) * 100'000'000u;
      NetResponse resp;
      while (!stop.load(std::memory_order_relaxed)) {
        ++id;
        const std::int64_t a = now_ns();
        if (!clients[c].batch(tr.verb, id, tr.frames[f], resp)) {
          ok[c] = 0;
          break;
        }
        const std::int64_t b = now_ns();
        const std::uint64_t before = tallies[c].correct;
        if (!judge_response(tr, f, id, resp, tallies[c])) ok[c] = 0;
        counters[c].correct.fetch_add(tallies[c].correct - before,
                                      std::memory_order_relaxed);
        rtts[c].emplace_back(b, static_cast<double>(b - a) * 1e-3);
        if (ledger != nullptr) {
          ledgers[c].add(Span{"service.net.frame", -1, id, a, b,
                              tr.frames[f].size()});
        }
        f = (f + nc) % tr.num_frames();
      }
      cursor[c] = f;
    });
  }
  std::uint64_t prev_correct = 0;
  double prev_cpu = cpu0;
  const CpuStat stat0 = read_cpu_stat();
  CpuStat prev_stat = stat0;
  std::int64_t prev_t = t0;
  const double window = seconds / windows;
  for (int w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(
            t0 + static_cast<std::int64_t>(window * w * 1e9))));
    const std::int64_t t = now_ns();
    const double cpu = cpu_seconds();
    std::uint64_t correct = 0;
    for (const ClientCounter& cc : counters) {
      correct += cc.correct.load(std::memory_order_relaxed);
    }
    const CpuStat stat = read_cpu_stat();
    out.windows.push_back(Window{t, seconds_between(prev_t, t), correct - prev_correct,
                                 cpu - prev_cpu, steal_share(prev_stat, stat)});
    prev_stat = stat;
    prev_correct = correct;
    prev_cpu = cpu;
    prev_t = t;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  out.seconds = seconds_between(t0, now_ns());
  out.steal = steal_share(stat0, prev_stat);
  next_id += 1;
  for (const auto& r : rtts) out.frames.insert(out.frames.end(), r.begin(), r.end());
  std::sort(out.frames.begin(), out.frames.end());
  for (std::size_t c = 0; c < nc; ++c) {
    out.tally.add(tallies[c]);
    out.transport_ok = out.transport_ok && ok[c] != 0;
    if (ledger != nullptr) ledger->absorb(std::move(ledgers[c]), parent);
  }
  return out;
}

/// Flushes the store files just written, so their write-back does not
/// compete with the timed phase.
void flush_files(const std::string& dir) {
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const int fd = ::open(e.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    (void)::fsync(fd);
    ::close(fd);
  }
}

/// First full pass over every label's decode plan (which runs each
/// shard's lazy CRC on a v3 store), then a warm pass; returns the
/// first-touch cost as the difference.
double first_touch(const Deployment& dep, std::uint64_t n, Ledger& L) {
  double cost = 0;
  for (const auto& snap : dep.snapshots()) {
    std::uint64_t hits = 0;
    const int a = L.begin("store.first_touch");
    for (std::uint64_t v = 0; v < n; ++v) hits += snap->view(v) != nullptr;
    L.end(a, n);
    const int b = L.begin("store.warm_pass");
    for (std::uint64_t v = 0; v < n; ++v) hits += snap->view(v) != nullptr;
    L.end(b, n);
    cost += seconds_between(L.span(a).start_ns, L.span(a).end_ns) -
            seconds_between(L.span(b).start_ns, L.span(b).end_ns);
    if (hits > 2 * n) std::abort();  // keeps the passes from being elided
  }
  return cost;
}

// ----------------------------------------------------------- provenance

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t c = line.find(':');
      return c == std::string::npos ? "" : line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string isa_flags() {
  static const char* kWanted[] = {"sse4_2", "popcnt", "avx", "avx2", "bmi2",
                                  "avx512f", "avx512bw", "avx512vl",
                                  "avx512_vpopcntdq", "avx512_vbmi2"};
  const std::string flags = " " + cpuinfo_field("flags") + " ";
  std::string out;
  for (const char* f : kWanted) {
    if (flags.find(std::string(" ") + f + " ") != std::string::npos) {
      out += (out.empty() ? "" : " ") + std::string(f);
    }
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

// ------------------------------------------------------------- the run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string work = ".bench_build/work";
  std::string source = "unknown";
};

int usage() {
  std::fprintf(stderr,
               "usage: plg_bench --workload adj-frames|adj-bulk|dist-f2|"
               "adj-router --seed S --seconds T --trace 0|1 [--tiny] "
               "[--work DIR] [--source ID]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--work") a.work = v;
    else if (k == "--source") a.source = v;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

Traffic make_traffic(const WorkloadSpec& w, const Graph& g,
                     const std::vector<bool>& fat, const Labeling* dist_labels,
                     std::uint64_t seed) {
  Traffic tr;
  tr.kind = w.kind;
  tr.verb = w.kind == QueryKind::kAdjacency ? wire::Verb::kAdjBatch
                                            : wire::Verb::kDistBatch;
  tr.batch = w.batch;
  tr.qs = generate_queries(g, fat, w.mix, w.pool_queries, seed);
  tr.ex.resize(tr.qs.size());
  const std::uint64_t n = g.num_vertices();
  for (std::size_t i = 0; i < tr.qs.size(); ++i) {
    const Query& q = tr.qs[i];
    Expect& e = tr.ex[i];
    e.in_range = q.u < n && q.v < n;
    if (!e.in_range) continue;
    if (w.kind == QueryKind::kAdjacency) {
      e.value = g.has_edge(static_cast<Vertex>(q.u), static_cast<Vertex>(q.v));
    } else {
      const auto d = plg::DistanceScheme::distance(
          (*dist_labels)[static_cast<Vertex>(q.u)],
          (*dist_labels)[static_cast<Vertex>(q.v)]);
      e.value = d ? static_cast<std::int64_t>(*d) : -1;
    }
  }
  for (std::size_t b = 0; b + w.batch <= tr.qs.size(); b += w.batch) {
    auto& fr = tr.frames.emplace_back();
    auto& rq = tr.reqs.emplace_back();
    for (std::size_t i = b; i < b + w.batch; ++i) {
      fr.emplace_back(tr.qs[i].u, tr.qs[i].v);
      rq.push_back(QueryRequest{tr.qs[i].u, tr.qs[i].v});
    }
  }
  return tr;
}

/// Cross-checks the distance oracle against a BFS capped at f on a
/// sample of the stream; false on any disagreement.
bool cross_check_distance(const Graph& g, const Traffic& tr, std::uint32_t f,
                          std::size_t samples) {
  const std::size_t step = std::max<std::size_t>(1, tr.qs.size() / samples);
  for (std::size_t i = 0; i < tr.qs.size(); i += step) {
    if (!tr.ex[i].in_range) continue;
    const auto d = plg::bfs_distances_capped(
        g, static_cast<Vertex>(tr.qs[i].u), f);
    const std::uint32_t got = d[tr.qs[i].v];
    const std::int64_t want =
        got == plg::kInfDist ? -1 : static_cast<std::int64_t>(got);
    if (want != tr.ex[i].value) {
      std::fprintf(stderr,
                   "plg-bench: distance oracle disagrees with BFS on (%llu,%llu):"
                   " labels %lld, bfs %lld\n",
                   static_cast<unsigned long long>(tr.qs[i].u),
                   static_cast<unsigned long long>(tr.qs[i].v),
                   static_cast<long long>(tr.ex[i].value),
                   static_cast<long long>(want));
      return false;
    }
  }
  return true;
}

/// The result line; its metrics carry a value and a unit only.
/// The result line: each metric with exactly its value and unit (the
/// report line carries the bases).
void print_result(bool correct, const Tally& t, std::vector<Metric> ms) {
  for (Metric& m : ms) m.base_name.clear();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed), metrics_json(ms).c_str());
  std::fflush(stdout);
}

/// Runs `fn(frame)` over the stream's frames, one span per frame under a
/// phase span, until `seconds` have passed (at least one frame).
template <typename Fn>
double timed_frames(Ledger& L, const std::string& phase, const std::string& name,
                    const Traffic& tr, double seconds, Fn&& fn) {
  const int p = L.begin(phase);
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t f = 0;
  do {
    const int s = L.begin(name, p, f);
    const std::uint64_t work = fn(f);
    L.end(s, work);
    f = (f + 1) % tr.num_frames();
  } while (now_ns() < deadline);
  L.end(p);
  return seconds_between(L.span(p).start_ns, L.span(p).end_ns);
}

/// What a run has set up by the time it starts timing.
struct Session {
  const Args& args;
  const WorkloadSpec& w;
  const std::string& dir;
  std::uint64_t n;
  Deployment& dep;
  Encoded& enc;
  const Traffic& tr;
  std::vector<SetupTimes> reps;
  Ledger& L;
  double first_touch_s = 0;
  std::vector<NetClient>& clients;
  std::vector<std::size_t> cursor;
  std::uint32_t next_id = 1;
  Tally total;
  bool transport_ok = true;

  double median_of(double SetupTimes::*field) const {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(t.*field);
    return median(v);
  }
};

/// A window is calm when the hypervisor stole at most this share of the
/// host's CPU time during it.
constexpr double kMaxWindowSteal = 0.05;
/// The end-to-end metrics use at least this many windows (1 s).
constexpr std::size_t kMinKeptWindows = 4;

/// Which windows the end-to-end metrics use: the calm ones, or, when
/// fewer than kMinKeptWindows are calm, the kMinKeptWindows with the
/// least steal. The choice looks at steal only, never at how fast a
/// window was.
std::vector<char> calm_windows(const std::vector<Window>& ws) {
  std::vector<char> keep(ws.size(), 0);
  std::size_t calm = 0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    keep[i] = ws[i].steal <= kMaxWindowSteal;
    calm += keep[i];
  }
  const std::size_t floor = std::min(kMinKeptWindows, ws.size());
  if (calm >= floor) return keep;
  std::vector<std::size_t> order(ws.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return ws[x].steal < ws[y].steal;
  });
  std::fill(keep.begin(), keep.end(), 0);
  for (std::size_t k = 0; k < floor; ++k) keep[order[k]] = 1;
  return keep;
}

std::vector<double> frame_rtts(const LoopResult& lr) {
  std::vector<double> v;
  v.reserve(lr.frames.size());
  for (const auto& fr : lr.frames) v.push_back(fr.second);
  return v;
}

/// The end-to-end run (--trace 0): prints the report line and returns the
/// result line's metrics.
std::vector<Metric> run_untraced(Session& s) {
  const Args& args = s.args;
  const WorkloadSpec& w = s.w;
  const Traffic& tr = s.tr;
  Deployment* dep = &s.dep;
  Ledger& L = s.L;
  std::vector<NetClient>& clients = s.clients;
  std::vector<std::size_t>& cursor = s.cursor;
  std::uint32_t& next_id = s.next_id;
  Tally& total = s.total;
  bool& transport_ok = s.transport_ok;
  const auto median_of = [&](double SetupTimes::*field) { return s.median_of(field); };
  const std::vector<SetupTimes>& reps = s.reps;
  const double first_touch_s = s.first_touch_s;
  const int windows = std::max(4, static_cast<int>(std::lround(4 * args.seconds)));
  const LoopResult lr =
      run_loop(clients, tr, args.seconds, windows, cursor, next_id, nullptr, -1);
  total.add(lr.tally);
  transport_ok = transport_ok && lr.transport_ok;
  // Windows in which the hypervisor stole more than kMaxWindowSteal of
  // the host's CPU time measure other tenants, not the program, and are
  // left out. Every other window counts in full, however slow: qps and
  // cpu_ns_per_query are sums over the kept windows, and the latency
  // percentiles cover every frame completed in them.
  const std::vector<char> kept = calm_windows(lr.windows);
  double kept_s = 0, kept_cpu_s = 0;
  std::uint64_t kept_correct = 0;
  std::size_t kept_windows = 0, kept_empty = 0;
  double max_kept_steal = 0;
  for (std::size_t i = 0; i < lr.windows.size(); ++i) {
    if (!kept[i]) continue;
    ++kept_windows;
    kept_s += lr.windows[i].seconds;
    kept_cpu_s += lr.windows[i].cpu_s;
    kept_correct += lr.windows[i].correct;
    kept_empty += lr.windows[i].correct == 0;
    max_kept_steal = std::max(max_kept_steal, lr.windows[i].steal);
  }
  std::vector<double> rtt_us;
  std::size_t win = 0;
  for (const auto& [end_ns, us] : lr.frames) {
    while (win < lr.windows.size() && lr.windows[win].end_ns < end_ns) ++win;
    if (win < lr.windows.size() && kept[win]) rtt_us.push_back(us);
  }
  const std::vector<Metric> e2e = {
      {"qps", ratio(static_cast<double>(kept_correct), kept_s), "1/s"},
      {"frame_p50_us", percentile(rtt_us, 0.50), "us", "frames",
       static_cast<double>(rtt_us.size())},
      {"frame_p99_us", percentile(rtt_us, 0.99), "us", "frames",
       static_cast<double>(rtt_us.size())},
      // A kept window that answered nothing still adds its CPU time.
      {"cpu_ns_per_query",
       kept_cpu_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, kept_correct)),
       "ns", "queries", static_cast<double>(kept_correct)},
      {"error_rate", ratio(static_cast<double>(lr.tally.failed),
                           static_cast<double>(lr.tally.attempted)),
       "ratio", "attempted", static_cast<double>(lr.tally.attempted)},
      {"setup_s", median_of(&SetupTimes::total), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf(
      "report {\"workload\":\"%s\",\"metrics\":%s,\"frames\":%zu,"
      "\"windows\":%zu,\"windows_kept\":%zu,\"windows_dropped\":%zu,"
      "\"kept_windows_without_answers\":%zu,\"calm_steal_limit\":%.2f,"
      "\"max_kept_window_steal\":%.3f,"
      "\"all_frames_p50_us\":%.3f,\"all_frames_p99_us\":%.3f,\"window_qps\":[",
      w.name.c_str(), metrics_json(e2e).c_str(), lr.frames.size(), lr.windows.size(),
      kept_windows, lr.windows.size() - kept_windows, kept_empty, kMaxWindowSteal,
      max_kept_steal,
      percentile(frame_rtts(lr), 0.50), percentile(frame_rtts(lr), 0.99));
  for (std::size_t i = 0; i < lr.windows.size(); ++i) {
    std::printf("%s%.0f", i ? "," : "",
                ratio(static_cast<double>(lr.windows[i].correct), lr.windows[i].seconds));
  }
  std::printf("],\"window_steal\":[");
  for (std::size_t i = 0; i < lr.windows.size(); ++i) {
    std::printf("%s%.3f", i ? "," : "", lr.windows[i].steal);
  }
  std::printf("],\"setup_s_reps\":[");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::printf("%s%.4f", i ? "," : "", reps[i].total);
  }
  std::printf("]");
  if (dep->router) std::printf(",%s", dep->router->extra_stats_json().c_str());
  std::printf(",\"steal_share\":%.4f,\"attempted\":%llu,\"failed\":%llu,\"out_of_range_ok\":%llu,"
              "\"first_touch_s\":%.6f,\"layers\":%s}\n",
              lr.steal, static_cast<unsigned long long>(lr.tally.attempted),
              static_cast<unsigned long long>(lr.tally.failed),
              static_cast<unsigned long long>(lr.tally.out_of_range),
              first_touch_s, L.summarize().c_str());
  // The result line carries the metrics BENCHMARK.json lists: not
  // error_rate (0 on a healthy run; the line carries attempted/failed)
  // and not frame_p99_us (its run-to-run spread on a shared host is
  // wider than any bound the benchmark may set). Both are printed above.
  std::vector<Metric> fin;
  for (const Metric& m : e2e) {
    if (m.name != "error_rate" && m.name != "frame_p99_us") fin.push_back(m);
  }
  return fin;
}

/// The traced run (--trace 1): the same stream through each layer's
/// public entry point in turn; prints the ledger line and returns the
/// result line's metrics.
std::vector<Metric> run_traced(Session& s) {
  const Args& args = s.args;
  const WorkloadSpec& w = s.w;
  const bool distance = w.kind == QueryKind::kDistance;
  const Traffic& tr = s.tr;
  Deployment* dep = &s.dep;
  Ledger& L = s.L;
  std::vector<NetClient>& clients = s.clients;
  std::vector<std::size_t>& cursor = s.cursor;
  std::uint32_t& next_id = s.next_id;
  Tally& total = s.total;
  bool& transport_ok = s.transport_ok;
  const auto median_of = [&](double SetupTimes::*field) { return s.median_of(field); };
  const std::uint64_t n = s.n;
  Encoded& enc = s.enc;
  const std::string& dir = s.dir;
  const double first_touch_s = s.first_touch_s;

  const double e2e_budget = 0.2 * args.seconds;
  const int layer_phases = w.router ? 6 : 5;
  const double phase_s = 0.6 * args.seconds / layer_phases;
  std::vector<Metric> ms;
  const auto add = [&](Metric m) { ms.push_back(std::move(m)); };

  // Layers below the router are measured on one full snapshot: the
  // served one, or for adj-router a v3 store of the whole labeling.
  std::shared_ptr<const Snapshot> snap = dep->snap;
  if (w.router) {
    const std::string ref = dir + "/reference.plgl";
    plg::store::StoreWriter::write_file(ref, enc.labeling, kStoreShards);
    snap = Snapshot::from_file(ref, kStoreShards, plg::StoreVerify::kStrict, true);
    for (std::uint64_t v = 0; v < n; ++v) (void)snap->view(v);
  }

  // Set-up steps, as medians over the set-up repetitions.
  const double admit_s = median_of(&SetupTimes::admit);
  add({"core.encode_s", median_of(&SetupTimes::encode), "s"});
  add({"store.write_s", median_of(&SetupTimes::write), "s"});
  add({"store.admit_s", admit_s, "s"});
  if (w.file_version == 2 && !w.router) {
    add({"service.snapshot.build_s", admit_s, "s"});  // v2: heap admission
  }
  add({"store.first_touch_s", first_touch_s, "s"});
  add({"service.start_s", median_of(&SetupTimes::start), "s"});

  Tally layer_tally;
  // core: the decoder alone, 1 thread, on labels resolved beforehand.
  double core_ns = 0;
  {
    std::vector<const plg::LabelView*> va(tr.qs.size()), vb(tr.qs.size());
    if (!distance) {
      for (std::size_t i = 0; i < tr.qs.size(); ++i) {
        if (!tr.ex[i].in_range) continue;
        va[i] = snap->view(tr.qs[i].u);
        vb[i] = snap->view(tr.qs[i].v);
      }
    }
    std::uint64_t queries = 0;
    timed_frames(
        L, "phase.core", distance ? "core.distance" : "core.label_view", tr,
        phase_s, [&](std::size_t f) -> std::uint64_t {
          const std::size_t b = tr.frame_begin(f);
          std::uint64_t done = 0;
          for (std::size_t i = b; i < b + tr.batch; ++i) {
            const Expect& e = tr.ex[i];
            if (!e.in_range) continue;
            if (distance) {
              const auto d = plg::DistanceScheme::distance(
                  enc.labeling[static_cast<Vertex>(tr.qs[i].u)],
                  enc.labeling[static_cast<Vertex>(tr.qs[i].v)]);
              judge(tr.kind, e, d ? wire::ResultCode::kYes : wire::ResultCode::kNo,
                    d ? static_cast<std::int64_t>(*d) : -1, tr.qs[i], layer_tally);
            } else {
              if (va[i] == nullptr || vb[i] == nullptr) continue;
              const bool adj = plg::label_view_adjacent(*va[i], *vb[i]);
              judge(tr.kind, e, adj ? wire::ResultCode::kYes : wire::ResultCode::kNo,
                    -1, tr.qs[i], layer_tally);
            }
            ++done;
          }
          queries += done;
          return done;
        });
    core_ns = ratio(L.total_ns(distance ? "core.distance" : "core.label_view"),
                    static_cast<double>(queries));
    add({distance ? "core.distance.ns" : "core.label_view.probe_ns", core_ns, "ns",
         "queries", static_cast<double>(queries)});
  }

  // service.snapshot: the snapshot lookup plus the decoder.
  double snapshot_ns = 0;
  {
    std::uint64_t queries = 0, view_calls = 0, view_null = 0;
    timed_frames(L, "phase.snapshot", "service.snapshot", tr, phase_s,
                 [&](std::size_t f) -> std::uint64_t {
                   const std::size_t b = tr.frame_begin(f);
                   std::uint64_t done = 0;
                   for (std::size_t i = b; i < b + tr.batch; ++i) {
                     const Expect& e = tr.ex[i];
                     if (!e.in_range) continue;
                     const std::uint64_t u = tr.qs[i].u, v = tr.qs[i].v;
                     if (distance) {
                       const auto d = plg::DistanceScheme::distance(snap->get(u),
                                                                    snap->get(v));
                       judge(tr.kind, e,
                             d ? wire::ResultCode::kYes : wire::ResultCode::kNo,
                             d ? static_cast<std::int64_t>(*d) : -1, tr.qs[i],
                             layer_tally);
                     } else {
                       const plg::LabelView* a = snap->view(u);
                       const plg::LabelView* c = snap->view(v);
                       view_calls += 2;
                       if (a == nullptr || c == nullptr) {
                         view_null += (a == nullptr) + (c == nullptr);
                         continue;
                       }
                       const bool adj = plg::label_view_adjacent(*a, *c);
                       judge(tr.kind, e,
                             adj ? wire::ResultCode::kYes : wire::ResultCode::kNo,
                             -1, tr.qs[i], layer_tally);
                     }
                     ++done;
                   }
                   queries += done;
                   return done;
                 });
    snapshot_ns = ratio(L.total_ns("service.snapshot"), static_cast<double>(queries));
    if (distance) {
      add({"service.snapshot.get_distance_ns", snapshot_ns, "ns", "queries",
           static_cast<double>(queries)});
    } else {
      add({"service.snapshot.view_probe_ns", snapshot_ns, "ns", "queries",
           static_cast<double>(queries)});
      add({"service.snapshot.view_null_frac",
           ratio(static_cast<double>(view_null), static_cast<double>(view_calls)),
           "ratio", "view_calls", static_cast<double>(view_calls)});
    }
  }

  // service.engine: query_batch at the workload's batch size.
  double inproc_p50_us = 0;
  double engine_1w_ns = 0, engine_2w_qps = 0;
  for (const unsigned workers : {1u, kServerWorkers}) {
    ServiceOptions opt;
    opt.kind = w.kind;
    opt.threads = workers;
    QueryService svc(snap, opt);
    const std::string name = "service.engine." + std::to_string(workers) + "w";
    std::vector<double> lat_us;
    const double secs = timed_frames(
        L, "phase.engine." + std::to_string(workers) + "w", name, tr, phase_s,
        [&](std::size_t f) -> std::uint64_t {
          const std::int64_t a = now_ns();
          const std::vector<QueryResult> rs = svc.query_batch(tr.reqs[f]);
          lat_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
          judge_results(tr, f, rs, layer_tally);
          return rs.size();
        });
    const double queries = static_cast<double>(L.total_count(name));
    if (workers == 1) {
      engine_1w_ns = ratio(L.total_ns(name), queries);
      add({"service.engine.ns_per_query_1w", engine_1w_ns, "ns", "queries", queries});
      continue;
    }
    engine_2w_qps = ratio(queries, secs);
    inproc_p50_us = percentile(lat_us, 0.5);
    const std::string st = svc.stats().to_json();
    const double q = json_number(st, "queries");
    const double cache = json_number(st, "cache_hits") + json_number(st, "cache_misses");
    add({"service.engine.qps_2w", engine_2w_qps, "1/s", "queries", queries});
    add({"service.engine.view_hit_frac", ratio(json_number(st, "view_hits"), q),
         "ratio", "queries", q});
    add({"service.engine.cache_hit_frac", ratio(json_number(st, "cache_hits"), cache),
         "ratio", "cache_lookups", cache});
    add({"service.engine.shed_frac", ratio(json_number(st, "shed_queries"), queries),
         "ratio", "queries_submitted", queries});
  }

  // cluster.router: Router::query_batch called directly.
  double router_p50_us = 0;
  if (w.router) {
    const auto sum_nodes = [&] {
      plg::cluster::NodeStatsView s;
      for (std::uint32_t i = 0; i < dep->router->config().num_nodes(); ++i) {
        const auto v = dep->router->node_stats(i);
        s.sent += v.sent;
        s.hedges += v.hedges;
        s.hedge_wins += v.hedge_wins;
        s.retries += v.retries;
      }
      return s;
    };
    const auto before = sum_nodes();
    std::vector<double> lat_us;
    timed_frames(L, "phase.router", "cluster.router", tr, phase_s,
                 [&](std::size_t f) -> std::uint64_t {
                   const std::int64_t a = now_ns();
                   const auto rs = dep->router->query_batch(
                       tr.reqs[f], plg::service::BatchOptions{});
                   lat_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
                   judge_results(tr, f, rs, layer_tally);
                   return rs.size();
                 });
    const auto after = sum_nodes();
    router_p50_us = percentile(lat_us, 0.5);
    const double frames = static_cast<double>(lat_us.size());
    const double sent = static_cast<double>(after.sent - before.sent);
    const double hedges = static_cast<double>(after.hedges - before.hedges);
    const double queries = static_cast<double>(L.total_count("cluster.router"));
    add({"cluster.router.ns_per_query", ratio(L.total_ns("cluster.router"), queries),
         "ns", "queries", queries});
    add({"cluster.router.node_frames_per_frame", ratio(sent, frames), "count",
         "frames", frames});
    add({"cluster.router.hedge_frac", ratio(hedges, sent), "ratio", "node_frames",
         sent});
    add({"cluster.router.hedge_win_frac",
         ratio(static_cast<double>(after.hedge_wins - before.hedge_wins), hedges),
         "ratio", "hedges", hedges});
    add({"cluster.router.retry_frac",
         ratio(static_cast<double>(after.retries - before.retries), sent), "ratio",
         "node_frames", sent});
  }

  // service.net: one connection, frame by frame, against the served
  // front; the overhead is its p50 minus the in-process p50 underneath.
  {
    std::string st0, st1;
    clients[0].stats_json(next_id++, st0);
    std::vector<double> lat_us;
    timed_frames(L, "phase.net", "service.net.batch", tr, phase_s,
                 [&](std::size_t f) -> std::uint64_t {
                   NetResponse resp;
                   const std::uint32_t id = next_id++;
                   const std::int64_t a = now_ns();
                   if (!clients[0].batch(tr.verb, id, tr.frames[f], resp)) {
                     transport_ok = false;
                   }
                   lat_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
                   if (!judge_response(tr, f, id, resp, layer_tally)) {
                     transport_ok = false;
                   }
                   return tr.frames[f].size();
                 });
    clients[0].stats_json(next_id++, st1);
    const auto delta = [&](const char* k) {
      return json_number(st1, k) - json_number(st0, k);
    };
    const double queries = static_cast<double>(L.total_count("service.net.batch"));
    const double frames_in = delta("frames_in");
    add({"service.net.frame_overhead_us",
         percentile(lat_us, 0.5) - (w.router ? router_p50_us : inproc_p50_us), "us",
         "frames", static_cast<double>(lat_us.size())});
    add({"service.net.bytes_per_query",
         ratio(delta("bytes_in") + delta("bytes_out"), queries), "bytes", "queries",
         queries});
    add({"service.net.shed_frame_frac", ratio(delta("rejected_admission"), frames_in),
         "ratio", "frames_in", frames_in});
    add({"service.net.protocol_errors", json_number(st1, "protocol_errors"), "count"});
  }

  // End to end, untraced then traced, on the same clients and stream.
  const LoopResult plain =
      run_loop(clients, tr, e2e_budget, 2, cursor, next_id, nullptr, -1);
  const int traced_root = L.begin("phase.e2e_traced");
  const LoopResult traced =
      run_loop(clients, tr, e2e_budget, 2, cursor, next_id, &L, traced_root);
  L.end(traced_root, traced.tally.attempted);
  const double plain_qps = ratio(static_cast<double>(plain.tally.correct), plain.seconds);
  const double traced_qps =
      ratio(static_cast<double>(traced.tally.correct), traced.seconds);
  add({"trace.overhead_frac", ratio(plain_qps - traced_qps, plain_qps), "ratio",
       "untraced_qps", plain_qps});
  total.add(plain.tally);
  total.add(traced.tally);
  total.add(layer_tally);
  transport_ok = transport_ok && plain.transport_ok && traced.transport_ok;

  std::printf("ledger {\"workload\":\"%s\",\"metrics\":%s,\"min_self_s\":%.9f,"
              "\"layers\":%s}\n",
              w.name.c_str(), metrics_json(ms).c_str(), L.min_self_ns() * 1e-9,
              L.summarize().c_str());

  // The result line: the per-layer metrics BENCHMARK.json lists, which
  // apply to every workload.
  const auto find = [&](const std::string& name) {
    for (const Metric& m : ms) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const std::vector<Metric> fin = {
      {"core.decode_ns", core_ns, "ns"},
      {"core.encode_s", find("core.encode_s"), "s"},
      {"store.write_s", find("store.write_s"), "s"},
      {"store.admit_s", admit_s, "s"},
      {"store.first_touch_s", first_touch_s, "s"},
      {"service.snapshot.ns_per_query", snapshot_ns, "ns"},
      {"service.engine.ns_per_query_1w", engine_1w_ns, "ns"},
      {"service.engine.qps_2w", engine_2w_qps, "1/s"},
      {"service.net.frame_overhead_us", find("service.net.frame_overhead_us"), "us"},
      {"service.net.bytes_per_query", find("service.net.bytes_per_query"), "bytes"},
      {"trace.overhead_frac", find("trace.overhead_frac"), "ratio"},
  };
  return fin;
}

int run(const Args& args) {
  WorkloadSpec w;
  if (!make_spec(args.workload, args.tiny, w)) return usage();
  const bool distance = w.kind == QueryKind::kDistance;
  std::filesystem::create_directories(args.work);
  const std::string dir =
      std::filesystem::absolute(args.work).string() + "/" + w.name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Inputs: graph and stream are functions of the seed alone.
  plg::Rng grng(args.seed * 0x9e3779b97f4a7c15ULL + 17);
  const Graph g = plg::chung_lu_power_law(w.n, kAlpha, kAvgDegree, grng);
  const std::uint64_t n = g.num_vertices();

  // Set-up, timed setup_reps times: all but the last in forked children,
  // the last in this process, which then serves.
  std::vector<SetupTimes> reps;
  for (int r = 1; r < w.setup_reps; ++r) {
    SetupTimes t;
    if (!set_up_in_child(w, g, dir + "/rep" + std::to_string(r), t)) {
      std::fprintf(stderr, "plg-bench: a set-up repetition failed\n");
      return 1;
    }
    reps.push_back(t);
  }
  Ledger L;
  Encoded enc;
  int setup_root = -1;
  std::unique_ptr<Deployment> dep = set_up(w, g, dir, L, enc, setup_root);
  reps.push_back(times_of(L, setup_root));

  // Oracle preparation: not timed, not part of setup_s.
  std::vector<bool> fat(n);
  std::size_t fats = 0;
  for (Vertex v = 0; v < n; ++v) {
    fat[v] = g.degree(v) >= enc.threshold;
    fats += fat[v];
  }
  if (fats != enc.num_fat) {
    std::fprintf(stderr, "plg-bench: class split %zu != encoder's %zu\n", fats,
                 enc.num_fat);
    return 1;
  }
  const Traffic tr = make_traffic(w, g, fat, distance ? &enc.labeling : nullptr,
                                  args.seed ^ 0x51f15eedULL);
  if (tr.num_frames() == 0) return usage();
  if (distance &&
      !cross_check_distance(g, tr, static_cast<std::uint32_t>(w.tau_or_f),
                            args.tiny ? 64 : 256)) {
    return 1;
  }
  if (!(args.trace == 1 && (distance || w.router))) enc.labeling = Labeling();

  {
    const Mix mix = measure_mix(tr.qs, tr.ex, fat, distance);
    std::printf("mix %s\n", mix.to_json(distance).c_str());
  }
  std::printf(
      "provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"tiny\":%s,\"nproc\":%u,\"cpu\":\"%s\",\"isa\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"source\":\"%s\","
      "\"shape\":{\"n\":%llu,\"m\":%llu,\"alpha\":%.1f,\"avg_degree\":%.1f,"
      "\"%s\":%llu,\"fat\":%zu,\"thin\":%zu,\"batch\":%zu,"
      "\"store_version\":%d,\"store_shards\":%zu,\"store_bytes\":%llu,"
      "\"router_nodes\":%d,\"server_workers\":%u,\"clients\":%u}}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace, args.tiny ? "true" : "false", std::thread::hardware_concurrency(),
      json_escape(cpuinfo_field("model name")).c_str(), isa_flags().c_str(),
      json_escape(__VERSION__).c_str(), PLG_BENCH_BUILD_TYPE,
      json_escape(args.source).c_str(), static_cast<unsigned long long>(n),
      static_cast<unsigned long long>(g.num_edges()), kAlpha, kAvgDegree,
      distance ? "f" : "tau", static_cast<unsigned long long>(w.tau_or_f),
      enc.num_fat, enc.num_thin, w.batch, w.router ? 3 : w.file_version,
      kStoreShards, static_cast<unsigned long long>(dep->store_bytes),
      w.router ? 3 : 0, w.router ? 1u : kServerWorkers, kClients);

  // Lazy set-up finishes before any timing: written files flushed,
  // first-touch CRC, connected clients, warm-up frames.
  flush_files(dir);
  const double first_touch_s = first_touch(*dep, n, L);
  std::vector<NetClient> clients(kClients);
  for (NetClient& c : clients) {
    c.set_timeout_ms(30'000);
    if (!c.connect(dep->front->port())) {
      std::fprintf(stderr, "plg-bench: cannot connect to the server\n");
      return 1;
    }
  }
  std::vector<std::size_t> cursor(kClients);
  // Client c sends frames c, c + kClients, ..., so together they send
  // every frame of the stream.
  for (std::size_t c = 0; c < kClients; ++c) cursor[c] = c % tr.num_frames();
  std::uint32_t next_id = 1;
  Tally total;
  const double warm = args.tiny ? 0.05 : 1.0;
  const LoopResult warmup =
      run_loop(clients, tr, warm, 1, cursor, next_id, nullptr, -1);
  total.add(warmup.tally);
  bool transport_ok = warmup.transport_ok;

  Session s{args,    w,     dir,           n,       *dep,
            enc,     tr,    std::move(reps), L,     first_touch_s,
            clients, std::move(cursor), next_id, total, transport_ok};
  const std::vector<Metric> fin = args.trace == 0 ? run_untraced(s) : run_traced(s);
  const bool correct = s.total.wrong == 0 && s.transport_ok;
  print_result(correct, s.total, fin);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace plgbench

int main(int argc, char** argv) {
  plgbench::Args args;
  if (!plgbench::parse_args(argc, argv, args)) return plgbench::usage();
  try {
    return plgbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plg-bench: %s\n", e.what());
    return 1;
  }
}
