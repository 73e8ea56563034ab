// Lock-free service observability: the engine's counters and latency
// histogram in one block, aggregated on demand into a JSON stats report.
//
// Design rule: the hot path never takes a lock and never touches a shared
// cache line per query. The engine tallies a chunk's counts in plain
// locals (ChunkCounts) and publishes them once per chunk into the
// cache-line-aligned EngineCounters block with relaxed fetch_adds (they
// are statistics, not synchronization — the only requirement is no torn
// reads, which atomics give for free). Aggregation (stats(), the cold
// path) reads the block with relaxed loads; totals are eventually
// consistent with in-flight chunks, which is exactly the precision a
// stats endpoint needs.
//
// Latency histogram: 64 power-of-two buckets of nanoseconds — bucket b
// counts samples with floor(log2(ns)) == b (bucket 0 also takes 0 ns).
// Log-scale buckets keep record() to a clz + one relaxed fetch_add and
// bound quantile error to 2x, plenty for p50/p99 trend lines. A chunk
// records its mean per-query time once, weighted by the queries it
// answered, so the bucket total always equals the query count.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/thread_annotations.h"

namespace plg::service {

inline constexpr int kLatencyBuckets = 64;

/// Index of the histogram bucket for a sample of `ns` nanoseconds.
constexpr int latency_bucket(std::uint64_t ns) noexcept {
  return ns == 0 ? 0 : 63 - __builtin_clzll(ns);
}

/// Lower bound (ns) of bucket b — for rendering.
constexpr std::uint64_t latency_bucket_floor(int b) noexcept {
  return b == 0 ? 0 : (std::uint64_t{1} << b);
}

class LatencyHistogram {
 public:
  /// Records `weight` samples of `ns` nanoseconds each.
  // plglint: noexcept-hot-path
  void record(std::uint64_t ns, std::uint64_t weight = 1) noexcept {
    buckets_[latency_bucket(ns)].fetch_add(weight, std::memory_order_relaxed);
  }

  std::uint64_t bucket(int b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kLatencyBuckets] = {};
};

/// One chunk's counts, kept in plain locals while the chunk runs and
/// published with EngineCounters::publish when it ends.
struct ChunkCounts {
  std::uint64_t queries = 0;            ///< requests answered
  std::uint64_t positive = 0;           ///< adjacent / within-f
  std::uint64_t view_hits = 0;          ///< answered via decode plan
  std::uint64_t corruptions = 0;        ///< decode / spot-check failures
  std::uint64_t range_errors = 0;       ///< id out of snapshot
  std::uint64_t deadline_exceeded = 0;  ///< queries cancelled
  std::uint64_t quarantine_hits = 0;    ///< hit quarantined shard
};

struct ServiceStats;

/// The engine's counters: one block, alignas(64) so it shares no line
/// with its neighbors (the histogram is already line-sized).
///
/// Relaxed-atomic contract — why these members carry no PLG_GUARDED_BY
/// and no mutex exists to name in one:
///
///   * Many writers, one write per chunk or event: every chunk publishes
///     here, whether a pool worker or a calling thread ran it, and the
///     shed and heal counters are bumped by whichever thread hit the full
///     queue or ran the heal. fetch_add is atomic however many writers
///     contend, and contention is bounded by the chunk rate, never the
///     query rate.
///   * Torn-read freedom is the only cross-thread requirement.
///     aggregate() may run on any thread concurrently with publishes;
///     std::atomic<u64> guarantees each individual load is untorn, and
///     relaxed ordering is sufficient because no reader derives a
///     happens-before edge from these values — they are statistics, not
///     synchronization. A total that trails an in-flight chunk is within
///     a stats endpoint's precision.
///   * No invariant spans two counters (e.g. hits+misses == lookups is
///     only eventually true), so there is no multi-word state a lock
///     would be needed to make atomic.
///
/// Under the thread-safety analysis this type is therefore correct with
/// NO capability: adding a mutex here would put a lock on the per-chunk
/// path to protect data that needs none. The plglint `mutex-guard` rule
/// keeps the inverse honest — if a future change does add a mutex to
/// this header, the build fails until something is declared
/// PLG_GUARDED_BY it.
struct alignas(64) EngineCounters {
  std::atomic<std::uint64_t> queries{0};        ///< requests answered
  std::atomic<std::uint64_t> batches{0};        ///< chunks executed
  std::atomic<std::uint64_t> positive{0};       ///< adjacent / within-f
  std::atomic<std::uint64_t> view_hits{0};      ///< answered via decode plan
  std::atomic<std::uint64_t> corruptions{0};    ///< spot-check failures
  std::atomic<std::uint64_t> range_errors{0};   ///< id out of snapshot
  std::atomic<std::uint64_t> deadline_exceeded{0};  ///< queries cancelled
  std::atomic<std::uint64_t> quarantine_hits{0};    ///< hit quarantined shard
  std::atomic<std::uint64_t> shed_chunks{0};     ///< chunks load-shed
  std::atomic<std::uint64_t> shed_queries{0};    ///< queries in shed chunks
  std::atomic<std::uint64_t> heal_attempts{0};   ///< shard heal tries
  std::atomic<std::uint64_t> heal_successes{0};  ///< shards re-admitted
  LatencyHistogram latency;  ///< per-query time, averaged per chunk (ns)

  /// Publishes one finished chunk: one relaxed fetch_add per counter,
  /// and the chunk's mean per-query time `elapsed_ns / c.queries`
  /// recorded with weight c.queries.
  void publish(const ChunkCounts& c, std::uint64_t elapsed_ns) noexcept;

  /// Cold-path read of every counter; `workers` is the pool size STATS
  /// reports. Lock-free by the relaxed-atomic contract above: the result
  /// is a point-in-time estimate, not a linearizable snapshot. Safe to
  /// call from any thread, concurrently with serving.
  ServiceStats aggregate(unsigned workers) const;
};

/// Connection-plane counters for the TCP front-end (NetServer). Owned by
/// the server, not the engine: a stdin-served process has no connection
/// plane and reports all-zero. Relaxed atomics by the same contract as
/// EngineCounters — every counter is bumped from the event-loop thread,
/// and the stats aggregation may read concurrently from any thread.
struct NetCounters {
  std::atomic<std::uint64_t> accepted{0};        ///< connections admitted
  std::atomic<std::uint64_t> rejected_accept{0};  ///< closed at accept (caps)
  std::atomic<std::uint64_t> rejected_admission{0};  ///< frames shed in-band
  std::atomic<std::uint64_t> protocol_errors{0};  ///< malformed frames
  std::atomic<std::uint64_t> timeouts_idle{0};    ///< idle-timeout closes
  std::atomic<std::uint64_t> timeouts_write{0};   ///< write-stall closes
  std::atomic<std::uint64_t> frames_in{0};        ///< request frames parsed
  std::atomic<std::uint64_t> frames_out{0};       ///< response frames sent
  std::atomic<std::uint64_t> bytes_in{0};         ///< socket bytes read
  std::atomic<std::uint64_t> bytes_out{0};        ///< socket bytes written
  std::atomic<std::uint64_t> accept_errors{0};    ///< accept() hard errors
};

/// Plain-value read of every counter at one instant.
struct ServiceStats {
  std::uint64_t workers = 0;
  std::uint64_t queries = 0;
  std::uint64_t batches = 0;
  std::uint64_t positive = 0;
  std::uint64_t view_hits = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t range_errors = 0;
  std::uint64_t shed_chunks = 0;
  std::uint64_t shed_queries = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t quarantine_hits = 0;
  std::uint64_t heal_attempts = 0;
  std::uint64_t heal_successes = 0;
  std::uint64_t quarantined_shards = 0;
  std::uint64_t snapshot_generation = 0;
  std::uint64_t snapshot_labels = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_shards = 0;

  // Connection-plane totals (all zero unless served over TCP; filled by
  // NetServer::stats from its NetCounters).
  std::uint64_t net_accepted = 0;
  std::uint64_t net_rejected_accept = 0;
  std::uint64_t net_rejected_admission = 0;
  std::uint64_t net_protocol_errors = 0;
  std::uint64_t net_timeouts_idle = 0;
  std::uint64_t net_timeouts_write = 0;
  std::uint64_t net_frames_in = 0;
  std::uint64_t net_frames_out = 0;
  std::uint64_t net_bytes_in = 0;
  std::uint64_t net_bytes_out = 0;
  std::uint64_t net_open_connections = 0;

  std::uint64_t latency_buckets[kLatencyBuckets] = {};

  /// Copies one point-in-time read of `net` into the net_* fields.
  void fill_net(const NetCounters& net, std::uint64_t open_connections);

  /// Bucket-resolution quantile: lower bound (ns) of the bucket holding
  /// the q-quantile sample (q in [0,1]). 0 when no samples recorded.
  std::uint64_t latency_quantile_ns(double q) const noexcept;

  /// Serializes the whole report as a single-line JSON object (the
  /// `plgtool serve` STATS reply and the bench artifact schema).
  std::string to_json() const;
};

}  // namespace plg::service
