// Router: the stateless scatter/gather front-end of the distributed
// serving tier. Implements service::BatchHandler, so the existing
// NetServer hosts it unchanged — `plgtool route` is just `serve --tcp`
// with a Router behind the event loop instead of a QueryService.
//
// A batch is split into *flows* keyed by the ordered eligible-node
// signature owners(u) ∩ owners(v) (non-empty by the ClusterConfig
// pair-coverage invariant; a flow's nodes keep owners(u)'s preference
// order). Any eligible node answers any of a flow's queries by itself,
// so flows that pick the same primary go out together as one *merged*
// node frame: a healthy batch sends at most one frame to each node.
// Merged frames run concurrently, one per primary: every frame but the
// last goes onto a small worker pool's shared queue, where any idle
// worker takes it, and the calling thread runs the last one itself, as
// the engine does with chunks. Retries and hedges stay per flow:
//
//   * Deadline budgets: every exchange gets min(per_try_ms, time left
//     until the batch deadline); the batch call itself always returns
//     by the overall deadline (bopt.deadline, or now + batch_budget_ms
//     when the caller set none) — the never-hang BatchHandler contract.
//   * Split-back: a merged frame that fails (connect failure, transport
//     error, timeout, retriable error frame, in-band kOverloaded
//     leftovers) splits back into its flows. Each flow retries only its
//     own unanswered queries on the next of its own replicas, after a
//     capped exponential backoff with stream_rng jitter keyed by node
//     and flow (policy.h), up to max_attempts; split flows run
//     concurrently on the pool.
//   * Hedging: once a node's latency histogram is warm, a request that
//     outlives the node's p95 (clamped; policy.h) hedges per flow: each
//     of its flows with another routable replica sends its own queries
//     there, and flows with no other replica keep waiting on the
//     primary. The first complete, id-verified response wins each
//     query; an arm nobody waits on any more has its connection closed.
//     A SIGSTOP'd node costs each flow one hedge delay, not a full
//     per-try timeout.
//   * Correlation: request_ids are monotonically increasing per pooled
//     connection, and every response frame — error frames included —
//     must echo the id of the request in flight on that connection
//     before it is matched against a hedged pair; a mismatch counts a
//     protocol error and closes the connection (the frame stream can no
//     longer be trusted).
//   * Health: per-node healthy -> suspect -> quarantined on consecutive
//     failures (any success resets). Quarantined nodes take no traffic;
//     a background prober pings them with capped-backoff jitter and
//     re-admits on success — the shard-level self-healer's pattern
//     lifted to node level.
//   * Degradation: when every eligible replica for a flow is
//     quarantined or exhausts its attempts, the flow's queries answer
//     kUnavailable in-band and the batch still completes on time.
//
// Signatures are node bitmasks, so a Router serves at most kMaxNodes
// nodes (the constructor throws std::invalid_argument beyond that).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <latch>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/config.h"
#include "cluster/policy.h"
#include "service/engine.h"
#include "service/net_client.h"
#include "service/thread_pool.h"
#include "util/locks.h"
#include "util/thread_annotations.h"

namespace plg::cluster {

struct RouterOptions {
  service::QueryKind kind = service::QueryKind::kAdjacency;

  // --- deadline budgets ---
  /// Budget per node attempt (connect + send + response). Clamped by
  /// the remaining batch budget.
  std::uint32_t per_try_ms = 250;
  /// Overall batch budget when the caller sets no BatchOptions
  /// deadline; guarantees bounded-time completion regardless.
  std::uint32_t batch_budget_ms = 2'000;
  /// Budget for establishing a fresh connection within an attempt.
  std::uint32_t connect_timeout_ms = 250;

  RetryPolicy retry;  ///< attempts + capped backoff + jitter seed
  HedgePolicy hedge;  ///< adaptive straggler hedging

  // --- health machine + prober ---
  std::uint32_t suspect_after = 1;
  std::uint32_t quarantine_after = 3;
  bool probe = true;               ///< run the background prober thread
  std::uint32_t probe_base_ms = 5;    ///< first probe-retry backoff
  std::uint32_t probe_max_ms = 200;   ///< probe backoff cap
  std::uint32_t probe_timeout_ms = 100;  ///< per-probe connect+ping budget
  std::uint32_t probe_tick_ms = 5;    ///< prober wakeup granularity

  // --- resources ---
  unsigned flow_threads = 4;       ///< scatter workers besides the caller
  std::size_t pool_cap = 8;        ///< idle connections kept per node
  std::size_t max_frame_payload = std::size_t{1} << 20;
};

/// Point-in-time copy of one node's counters (tests, stats JSON).
struct NodeStatsView {
  NodeState state = NodeState::kHealthy;
  std::uint64_t sent = 0;          ///< request frames sent (hedges incl.)
  std::uint64_t ok = 0;            ///< id-verified kOk responses
  std::uint64_t retries = 0;       ///< attempts after the first
  std::uint64_t hedges = 0;        ///< hedge requests fired at this node
  std::uint64_t hedge_wins = 0;    ///< hedges that beat the primary
  std::uint64_t transport_errors = 0;
  std::uint64_t protocol_errors = 0;  ///< bad id echo / malformed frame
  std::uint64_t timeouts = 0;
  std::uint64_t to_suspect = 0;       ///< health transitions
  std::uint64_t to_quarantined = 0;
  std::uint64_t recovered = 0;
  std::uint64_t probes = 0;           ///< background probes attempted
};

class Router final : public service::BatchHandler {
 public:
  /// Most nodes a Router can address: one bit per node in a signature.
  static constexpr std::uint32_t kMaxNodes = 64;

  /// Validates the config (throws std::invalid_argument) and spawns the
  /// flow pool + prober. No connections are opened until traffic.
  Router(ClusterConfig cfg, RouterOptions opt);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::vector<service::QueryResult> query_batch(
      const std::vector<service::QueryRequest>& batch,
      const service::BatchOptions& bopt) override;

  service::QueryKind kind() const noexcept override { return opt_.kind; }
  service::ServiceStats stats() const override;
  std::string extra_stats_json() const override;
  void drain() override;

  const ClusterConfig& config() const noexcept { return cfg_; }
  NodeStatsView node_stats(std::uint32_t node) const;
  NodeState node_state(std::uint32_t node) const;
  std::uint64_t unavailable_queries() const noexcept {
    return unavailable_.load(std::memory_order_relaxed);
  }

 private:
  /// One pooled connection plus its monotonically increasing request-id
  /// counter (correlation contract: ids are per-connection).
  struct PooledConn {
    service::NetClient client;
    std::uint32_t next_request_id = 1;
  };

  /// Per-node state. The mutex guards the connection pool and the
  /// health machine; counters are relaxed atomics (statistics only).
  struct Node {
    NodeEndpoint ep;
    mutable util::Mutex mu;
    std::vector<PooledConn> idle PLG_GUARDED_BY(mu);
    NodeHealth health PLG_GUARDED_BY(mu);
    std::uint32_t probe_fails PLG_GUARDED_BY(mu) = 0;
    std::chrono::steady_clock::time_point next_probe PLG_GUARDED_BY(mu){};

    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> hedges{0};
    std::atomic<std::uint64_t> hedge_wins{0};
    std::atomic<std::uint64_t> transport_errors{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> to_suspect{0};
    std::atomic<std::uint64_t> to_quarantined{0};
    std::atomic<std::uint64_t> recovered{0};
    std::atomic<std::uint64_t> probes{0};
    service::LatencyHistogram latency;
    std::atomic<std::uint64_t> latency_samples{0};
  };

  /// One group of batch queries sharing an ordered eligible-node
  /// signature. Its queries are order[begin, end) of the batch's
  /// primary-grouped index order, so the flows of one merged frame are
  /// adjacent slices of it.
  struct Flow {
    std::uint64_t mask = 0;            ///< the eligible set as node bits
    std::vector<std::uint32_t> nodes;  ///< preference-ordered eligible set
    int primary = -1;                  ///< pick_node(*this, 0); -1 = none
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// One flow's share of an exchange: asked[offset, offset + count).
  struct Part {
    const Flow* flow = nullptr;
    std::size_t offset = 0;
    std::size_t count = 0;
    std::size_t hedge_arm = 0;  ///< its hedge's arm index; 0 = none
    bool answered = false;      ///< a verified response filled the slots
    std::vector<std::size_t> overloaded;  ///< in-band retriable leftovers
  };

  /// One in-flight request arm of an exchange: the primary asks every
  /// part, a hedge asks exactly one.
  struct Arm {
    std::uint32_t node = 0;
    std::optional<PooledConn> conn;
    std::uint32_t request_id = 0;
    bool is_hedge = false;
    std::size_t part = 0;  ///< the part a hedge asks
    std::chrono::steady_clock::time_point sent_at{};
    std::vector<std::uint8_t> buf;  ///< incremental response bytes
  };

  /// Sends one merged frame (attempt 0 of the flows `ids` names, which
  /// share a primary) and splits whatever it leaves unanswered back into
  /// per-flow retries. Counts each flow down on `done` once it is
  /// resolved. noexcept: a frame the caller runs must not unwind its
  /// batch while queued work still writes into it, and an exception on
  /// a pool thread ends the process anyway.
  void run_frame(const std::vector<service::QueryRequest>& batch,
                 const std::vector<Flow>& flows,
                 std::span<const std::uint32_t> ids,
                 const std::vector<std::size_t>& order,
                 std::chrono::steady_clock::time_point overall_deadline,
                 std::vector<service::QueryResult>& results,
                 std::latch& done) noexcept;

  /// Attempts 1.. of one flow for its `pending` queries, then resolves
  /// what is left (kUnavailable or kDeadlineExceeded).
  void run_flow(const std::vector<service::QueryRequest>& batch,
                const Flow& flow, std::vector<std::size_t> pending,
                std::chrono::steady_clock::time_point overall_deadline,
                std::vector<service::QueryResult>& results) noexcept;

  /// Resolves and counts the queries a flow leaves unanswered: they
  /// turn kDeadlineExceeded once the batch deadline has passed, and stay
  /// kUnavailable before it.
  void finish_flow(std::span<const std::size_t> pending,
                   std::chrono::steady_clock::time_point overall_deadline,
                   std::vector<service::QueryResult>& results);

  /// One attempt: asks `primary` for `asked` and, past the hedge delay,
  /// each unanswered part's next replica for that part's slice. Marks
  /// the parts it answers (first verified response wins each part).
  /// Returns true when a hedge was sent.
  bool exchange(const std::vector<service::QueryRequest>& batch,
                std::span<const std::size_t> asked, std::span<Part> parts,
                std::uint32_t primary,
                std::chrono::steady_clock::time_point deadline,
                std::vector<service::QueryResult>& results);

  /// Pops an idle pooled connection or opens a fresh one within
  /// `timeout_ms`. nullopt = node unreachable (counted by the caller).
  std::optional<PooledConn> acquire_conn(Node& n, std::uint32_t timeout_ms);
  void release_conn(Node& n, PooledConn&& conn);

  /// Records one exchange-level observation against a node's health
  /// machine, bumping transition counters and waking the prober on
  /// demotion to quarantine.
  void record_outcome(std::uint32_t node, bool success);

  /// Next routable node in `flow.nodes` at or after `start` (wrapping),
  /// healthy preferred over suspect, quarantined skipped; -1 if none.
  int pick_node(const Flow& flow, std::uint32_t start,
                int exclude = -1) const;

  /// Drains readable bytes into the arm's buffer. Returns false when
  /// the connection died (EOF / transport error).
  static bool pump_arm(Arm& a);
  /// Classification of an arm's buffered bytes against the shared codec
  /// (header validated against max_frame_payload).
  enum class ArmFrame : std::uint8_t {
    kNeedMore,   ///< not yet one complete frame
    kComplete,   ///< exactly one complete frame buffered
    kMalformed,  ///< bad header bytes or surplus bytes after the frame
  };
  ArmFrame arm_frame(const Arm& a, service::wire::FrameHeader& hdr) const;

  void prober_main();
  bool probe_once(const NodeEndpoint& ep);

  std::chrono::steady_clock::time_point now() const {
    return std::chrono::steady_clock::now();
  }

  ClusterConfig cfg_;
  RouterOptions opt_;
  std::vector<std::vector<std::uint32_t>> pref_;  ///< shard -> owners
  std::vector<std::uint64_t> mask_;  ///< shard -> owners as node bits
  std::vector<std::unique_ptr<Node>> nodes_;
  service::ThreadPool pool_;

  // Router-level counters (relaxed; statistics only).
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> node_frames_{0};  ///< request frames sent
  std::atomic<std::uint64_t> splits_{0};  ///< merged frames split to flows
  std::atomic<std::uint64_t> flow_seq_{0};  ///< retry jitter stream key

  // Drain gate: query_batch calls in flight.
  mutable util::Mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::uint64_t active_batches_ PLG_GUARDED_BY(drain_mu_) = 0;

  // Prober machinery (condvar pairs with probe_mu_; thread joined in
  // the destructor).
  util::Mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool probe_stop_ PLG_GUARDED_BY(probe_mu_) = false;
  bool probe_poke_ PLG_GUARDED_BY(probe_mu_) = false;
  std::thread prober_;
};

}  // namespace plg::cluster
