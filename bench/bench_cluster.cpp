// E19: distributed serving tier — scatter/gather router over replicated
// nodes, and what hedging buys under a gray failure.
//
// Three measurements:
//
//   1. single: one QueryService + NetServer over the full labeling —
//      the no-cluster baseline for the same workload.
//   2. cluster: the same labeling split 3 ways at R=2 (rendezvous
//      placement), served by three in-process nodes behind a Router
//      front-end. Reports aggregate qps and the ratio vs single — the
//      price of the extra hop and the scatter/gather join.
//   3. stall: node 0 is replaced by a tarpit (accepts, reads, never
//      responds — the network shape of a SIGSTOP'd or gray-failing
//      process) and the health machine is disabled so every batch keeps
//      routing into it. p99 batch latency is measured with hedging ON
//      vs OFF. Unhedged, a stalled primary costs the full per-try
//      timeout; hedged, it costs one (cold-histogram) hedge delay. The
//      ratio is the CI gate — it is machine-independent in a way raw
//      qps is not, because both sides stall on the same clocks. Three
//      interleaved unhedged/hedged pairs run; the median pair's ratio is
//      reported, and every pair is listed under stall.trials.
//
// Every scenario oracle-checks a query sample against the graph before
// timing anything: a router that loses or misroutes answers fast is not
// a benchmark.
//
// Usage: bench_cluster [n] [avg_deg] [queries] [conns] [batch]
//   defaults:          65536  8.0     200000    4       512
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>

#include "bench_util.h"
#include "cluster/config.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "service/engine.h"
#include "service/frame.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "service/snapshot.h"
#include "util/bits.h"
#include "util/random.h"

namespace {

using namespace plg;
using namespace plg::service;

/// Accepts and drains, never answers: the gray-failure stand-in.
class Tarpit {
 public:
  Tarpit() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    ::listen(fd_, 64);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { loop(); });
  }

  ~Tarpit() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    for (const int c : conns_) ::close(c);
    ::close(fd_);
  }

  std::uint16_t port() const noexcept { return port_; }

 private:
  void loop() {
    std::vector<std::uint8_t> sink(4096);
    while (!stop_.load(std::memory_order_relaxed)) {
      pollfd p{};
      p.fd = fd_;
      p.events = POLLIN;
      if (::poll(&p, 1, 20) > 0) {
        const int c = ::accept4(fd_, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (c >= 0) conns_.push_back(c);
      }
      for (const int c : conns_) {
        while (::recv(c, sink.data(), sink.size(), MSG_DONTWAIT) > 0) {
        }
      }
    }
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::vector<int> conns_;
};

/// Drives `total` queries over `conns` connections against a live TCP
/// port; returns aggregate qps, or 0 on any transport/shape failure.
double drive_qps(std::uint16_t port, std::uint64_t total, unsigned conns,
                 std::size_t batch, std::uint64_t n,
                 std::uint64_t seed_base) {
  const std::uint64_t per_conn = total / conns;
  std::vector<char> ok(conns, 1);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      NetClient c;
      c.set_timeout_ms(60'000);
      if (!c.connect(port)) {
        ok[t] = 0;
        return;
      }
      Rng qrng(seed_base + t);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(batch);
      std::uint32_t id = 0;
      for (std::uint64_t done = 0; done < per_conn; done += batch) {
        for (auto& q : qs) {
          q.first = qrng.next_below(n);
          q.second = qrng.next_below(n);
        }
        NetResponse resp;
        if (!c.batch(wire::Verb::kAdjBatch, ++id, qs, resp) ||
            resp.payload.size() != qs.size()) {
          ok[t] = 0;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < conns; ++t) {
    if (!ok[t]) return 0.0;
  }
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(per_conn * conns) / secs;
}

std::string make_temp_dir() {
  std::string tmpl = "/tmp/plg_bench_cluster_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) return {};
  return std::string(buf.data());
}

/// One in-process cluster node over a partition file.
struct BenchNode {
  std::shared_ptr<const Snapshot> snap;
  std::unique_ptr<QueryService> svc;
  std::unique_ptr<NetServer> server;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 65536;
  const double avg_deg = argc > 2 ? std::strtod(argv[2], nullptr) : 8.0;
  const std::uint64_t total_queries =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 200000;
  const unsigned conns =
      argc > 4 ? static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10))
               : 4;
  const std::size_t kBatch =
      argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 512;

  bench::header("E19: distributed tier — router, replication, hedging");

  Rng rng(bench::kSeed);
  const Graph g = chung_lu_power_law(n, 2.5, avg_deg, rng);
  const std::uint64_t tau = 12;
  const auto enc = thin_fat_encode_parallel(
      g, tau, std::thread::hardware_concurrency());

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
  std::printf("  n=%zu m=%zu fat=%zu thin=%zu width=%d\n", wl.n, wl.m,
              wl.num_fat, wl.num_thin, wl.width);

  // ---------------------------------------------------- single baseline
  double single_qps = 0.0;
  {
    const auto snapshot = Snapshot::build(enc.labeling, 16);
    QueryService svc(snapshot, {.threads = 2});
    NetServerOptions nopt;
    nopt.port = 0;
    nopt.dispatchers = 2;
    NetServer server(svc, nopt);
    server.start();
    single_qps = drive_qps(server.port(), total_queries, conns, kBatch, n,
                           bench::kSeed + 100);
    server.stop();
    server.join();
    if (single_qps <= 0.0) {
      std::fprintf(stderr, "bench_cluster: single-node run failed\n");
      return 1;
    }
    std::printf("  single node:            %12.0f qps\n", single_qps);
  }

  // ------------------------------------------------- 3-node R=2 cluster
  cluster::ClusterConfig cfg;
  cfg.nodes.assign(3, cluster::NodeEndpoint{});
  cfg.replication = 2;
  cfg.key_shards = 64;
  cfg.seed = 0x5eed;
  const std::string dir = make_temp_dir();
  if (dir.empty()) {
    std::fprintf(stderr, "bench_cluster: mkdtemp failed\n");
    return 1;
  }
  cluster::write_partitions(enc.labeling, cfg, dir, 8);

  std::vector<BenchNode> nodes(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    nodes[i].snap = Snapshot::from_file(cluster::partition_path(dir, i), 8,
                                        StoreVerify::kStrict,
                                        /*allow_quarantine=*/true);
    nodes[i].svc =
        std::make_unique<QueryService>(nodes[i].snap, ServiceOptions{
                                                          .threads = 2,
                                                      });
    NetServerOptions nopt;
    nopt.port = 0;
    nopt.dispatchers = 2;
    nodes[i].server = std::make_unique<NetServer>(*nodes[i].svc, nopt);
    nodes[i].server->start();
    cfg.nodes[i] =
        cluster::NodeEndpoint{"127.0.0.1", nodes[i].server->port()};
  }

  double cluster_qps = 0.0;
  {
    cluster::RouterOptions ropt;
    ropt.flow_threads = 4;
    cluster::Router router(cfg, ropt);
    NetServerOptions fopt;
    fopt.port = 0;
    fopt.dispatchers = 4;
    NetServer front(router, fopt);
    front.start();

    // Oracle spot-check through the whole tier before timing.
    {
      NetClient c;
      c.set_timeout_ms(10'000);
      if (!c.connect(front.port())) {
        std::fprintf(stderr, "bench_cluster: cannot reach own router\n");
        return 1;
      }
      Rng check_rng(7);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(256);
      for (auto& q : qs) {
        q.first = check_rng.next_below(n);
        q.second = check_rng.next_below(n);
      }
      NetResponse resp;
      if (!c.batch(wire::Verb::kAdjBatch, 1, qs, resp) ||
          resp.payload.size() != qs.size()) {
        std::fprintf(stderr, "bench_cluster: oracle batch failed\n");
        return 1;
      }
      for (std::size_t i = 0; i < qs.size(); ++i) {
        const bool expect = g.has_edge(static_cast<Vertex>(qs[i].first),
                                       static_cast<Vertex>(qs[i].second));
        const bool got = static_cast<wire::ResultCode>(resp.payload[i]) ==
                         wire::ResultCode::kYes;
        if (got != expect) {
          std::fprintf(stderr,
                       "bench_cluster: ORACLE MISMATCH at query %zu\n", i);
          return 1;
        }
      }
      std::printf("  oracle spot-check: 256/256 correct through router\n");
    }

    cluster_qps = drive_qps(front.port(), total_queries, conns, kBatch, n,
                            bench::kSeed + 200);
    front.stop();
    front.join();
    if (cluster_qps <= 0.0) {
      std::fprintf(stderr, "bench_cluster: cluster run failed\n");
      return 1;
    }
    std::printf("  3-node R=2 via router:  %12.0f qps (%.2fx single)\n",
                cluster_qps, cluster_qps / single_qps);
  }

  // ------------------------------------------- stall: hedging on vs off
  // A fully replicated pair (N=2, R=2: both nodes own every shard) with
  // node 0 a tarpit — the network shape of a SIGSTOP'd or gray-failing
  // replica. Health demotion thresholds are pushed out of reach so the
  // router keeps trusting the tarpit, isolating what hedging itself
  // buys against a gray failure no health check has caught yet. Full
  // replication keeps the comparison clean: every flow has a live
  // replica, so both configs answer 100% correctly and differ only in
  // how long a stalled primary holds its flow hostage.
  Tarpit tarpit;
  for (auto& node : nodes) {
    node.server->stop();
    node.server->join();
    node.server.reset();
    node.svc.reset();
  }
  const auto full_snap = Snapshot::build(enc.labeling, 16);
  QueryService full_svc(full_snap, {.threads = 2});
  NetServerOptions full_opt;
  full_opt.port = 0;
  full_opt.dispatchers = 2;
  NetServer full_node(full_svc, full_opt);
  full_node.start();

  cluster::ClusterConfig stall_cfg;
  stall_cfg.nodes = {cluster::NodeEndpoint{"127.0.0.1", tarpit.port()},
                     cluster::NodeEndpoint{"127.0.0.1", full_node.port()}};
  stall_cfg.replication = 2;
  stall_cfg.key_shards = 64;
  stall_cfg.seed = 0x5eed;

  // One stall trial: kStallBatches batches through a fresh router with
  // hedging on or off; returns the p99 batch latency in ms (negative on
  // a wrong answer, which fails the run).
  const int kStallBatches = 60;
  const std::size_t kStallBatch = 256;
  auto stall_trial = [&](bool hedged, std::uint64_t& hedge_wins) -> double {
    cluster::RouterOptions ropt;
    ropt.per_try_ms = 200;
    ropt.batch_budget_ms = 10'000;
    ropt.retry.max_attempts = 3;
    ropt.hedge.enabled = hedged;
    ropt.hedge.min_us = 1'000;
    ropt.hedge.max_us = 10'000;
    ropt.suspect_after = 1u << 30;  // never demote: gray failure
    ropt.quarantine_after = 1u << 30;
    ropt.probe = false;
    ropt.flow_threads = 4;
    cluster::Router router(stall_cfg, ropt);

    Rng qrng(bench::kSeed + 300);
    bench::LatencySamples lat;
    for (int b = 0; b < kStallBatches; ++b) {
      std::vector<QueryRequest> batch(kStallBatch);
      for (auto& q : batch) {
        q.u = qrng.next_below(n);
        q.v = qrng.next_below(n);
      }
      const auto t0 = std::chrono::steady_clock::now();
      const auto results = router.query_batch(batch, BatchOptions{});
      const auto t1 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const bool expect = g.has_edge(static_cast<Vertex>(batch[i].u),
                                       static_cast<Vertex>(batch[i].v));
        if (results[i].status != QueryStatus::kOk ||
            results[i].adjacent != expect) {
          std::fprintf(stderr,
                       "bench_cluster: stall-phase wrong answer "
                       "(hedged=%d batch=%d query=%zu)\n",
                       hedged ? 1 : 0, b, i);
          return -1.0;
        }
      }
      lat.record(std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    hedge_wins = 0;
    for (std::uint32_t nn = 0; nn < 2; ++nn) {
      hedge_wins += router.node_stats(nn).hedge_wins;
    }
    return lat.p99() / 1e6;
  };

  // A single trial's p99 is the 1-in-100 batch of 60, so one noisy
  // batch moves it: run kStallTrials unhedged/hedged pairs, interleaved
  // so host noise hits both sides alike, and report the median pair.
  struct StallPair {
    double p99_ms[2] = {0.0, 0.0};  ///< [unhedged, hedged]
    std::uint64_t hedge_wins = 0;
    double improvement = 0.0;
  };
  const int kStallTrials = 3;
  std::vector<StallPair> trials(kStallTrials);
  for (StallPair& t : trials) {
    for (const bool hedged : {false, true}) {
      std::uint64_t wins = 0;
      const double p99 = stall_trial(hedged, wins);
      if (p99 < 0.0) return 1;
      t.p99_ms[hedged ? 1 : 0] = p99;
      if (hedged) t.hedge_wins = wins;
      std::printf("  stalled node, hedge=%s:  p99 batch = %8.1f ms\n",
                  hedged ? "on " : "off", p99);
    }
    t.improvement = t.p99_ms[1] > 0.0 ? t.p99_ms[0] / t.p99_ms[1] : 0.0;
  }
  std::vector<StallPair> sorted = trials;
  std::sort(sorted.begin(), sorted.end(),
            [](const StallPair& a, const StallPair& b) {
              return a.improvement < b.improvement;
            });
  const StallPair& median = sorted[sorted.size() / 2];
  std::printf("  hedging p99 improvement: %.1fx median of %d (hedge wins: "
              "%" PRIu64 ")\n",
              median.improvement, kStallTrials, median.hedge_wins);
  std::string trials_json;
  for (const StallPair& t : trials) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"p99_unhedged_ms\":%.1f,\"p99_hedged_ms\":%.1f,"
                  "\"p99_improvement\":%.2f,\"hedge_wins\":%" PRIu64 "}",
                  trials_json.empty() ? "" : ",", t.p99_ms[0], t.p99_ms[1],
                  t.improvement, t.hedge_wins);
    trials_json += buf;
  }

  full_node.stop();
  full_node.join();

  const char* out_path = "BENCH_cluster.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(
        f,
        "{\"bench\":\"cluster\",%s,"
        "\"queries\":%" PRIu64 ",\"conns\":%u,\"batch\":%zu,"
        "\"single\":{\"qps\":%.0f},"
        "\"cluster\":{\"nodes\":3,\"replication\":2,\"qps\":%.0f,"
        "\"vs_single\":%.3f},"
        "\"stall\":{\"batches\":%d,\"batch_size\":%zu,"
        "\"p99_unhedged_ms\":%.1f,\"p99_hedged_ms\":%.1f,"
        "\"p99_improvement\":%.2f,\"hedge_wins\":%" PRIu64
        ",\"trials\":[%s]}}\n",
        bench::workload_json(wl).c_str(), total_queries, conns, kBatch,
        single_qps, cluster_qps, cluster_qps / single_qps, kStallBatches,
        kStallBatch, median.p99_ms[0], median.p99_ms[1], median.improvement,
        median.hedge_wins, trials_json.c_str());
    std::fclose(f);
    std::printf("  wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "bench_cluster: cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
