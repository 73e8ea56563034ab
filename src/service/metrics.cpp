#include "service/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace plg::service {

// plglint: noexcept-hot-path
void EngineCounters::publish(const ChunkCounts& c,
                             std::uint64_t elapsed_ns) noexcept {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  batches.fetch_add(1, kRelaxed);
  queries.fetch_add(c.queries, kRelaxed);
  positive.fetch_add(c.positive, kRelaxed);
  view_hits.fetch_add(c.view_hits, kRelaxed);
  corruptions.fetch_add(c.corruptions, kRelaxed);
  range_errors.fetch_add(c.range_errors, kRelaxed);
  deadline_exceeded.fetch_add(c.deadline_exceeded, kRelaxed);
  quarantine_hits.fetch_add(c.quarantine_hits, kRelaxed);
  if (c.queries != 0) latency.record(elapsed_ns / c.queries, c.queries);
}

ServiceStats EngineCounters::aggregate(unsigned workers) const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  ServiceStats out;
  out.workers = workers;
  out.queries = queries.load(kRelaxed);
  out.batches = batches.load(kRelaxed);
  out.positive = positive.load(kRelaxed);
  out.view_hits = view_hits.load(kRelaxed);
  out.corruptions = corruptions.load(kRelaxed);
  out.range_errors = range_errors.load(kRelaxed);
  out.deadline_exceeded = deadline_exceeded.load(kRelaxed);
  out.quarantine_hits = quarantine_hits.load(kRelaxed);
  out.shed_chunks = shed_chunks.load(kRelaxed);
  out.shed_queries = shed_queries.load(kRelaxed);
  out.heal_attempts = heal_attempts.load(kRelaxed);
  out.heal_successes = heal_successes.load(kRelaxed);
  for (int b = 0; b < kLatencyBuckets; ++b) {
    out.latency_buckets[b] = latency.bucket(b);
  }
  return out;
}

void ServiceStats::fill_net(const NetCounters& net,
                            std::uint64_t open_connections) {
  net_accepted = net.accepted.load(std::memory_order_relaxed);
  net_rejected_accept = net.rejected_accept.load(std::memory_order_relaxed);
  net_rejected_admission =
      net.rejected_admission.load(std::memory_order_relaxed);
  net_protocol_errors = net.protocol_errors.load(std::memory_order_relaxed);
  net_timeouts_idle = net.timeouts_idle.load(std::memory_order_relaxed);
  net_timeouts_write = net.timeouts_write.load(std::memory_order_relaxed);
  net_frames_in = net.frames_in.load(std::memory_order_relaxed);
  net_frames_out = net.frames_out.load(std::memory_order_relaxed);
  net_bytes_in = net.bytes_in.load(std::memory_order_relaxed);
  net_bytes_out = net.bytes_out.load(std::memory_order_relaxed);
  net_open_connections = open_connections;
}

std::uint64_t ServiceStats::latency_quantile_ns(double q) const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : latency_buckets) total += c;
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the quantile sample, 1-based; walk buckets until covered.
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    seen += latency_buckets[b];
    if (seen >= rank) return latency_bucket_floor(b);
  }
  return latency_bucket_floor(kLatencyBuckets - 1);
}

std::string ServiceStats::to_json() const {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workers\":%" PRIu64 ",\"queries\":%" PRIu64 ",\"batches\":%" PRIu64
      ",\"positive\":%" PRIu64 ",\"view_hits\":%" PRIu64
      ",\"corruptions\":%" PRIu64
      ",\"range_errors\":%" PRIu64 ",\"shed_chunks\":%" PRIu64
      ",\"shed_queries\":%" PRIu64 ",\"deadline_exceeded\":%" PRIu64
      ",\"quarantine_hits\":%" PRIu64 ",\"heal_attempts\":%" PRIu64
      ",\"heal_successes\":%" PRIu64 ",\"snapshot\":{\"generation\":%" PRIu64
      ",\"labels\":%" PRIu64 ",\"bytes\":%" PRIu64 ",\"shards\":%" PRIu64
      ",\"quarantined\":%" PRIu64 "},\"net\":{\"accepted\":%" PRIu64
      ",\"open\":%" PRIu64 ",\"rejected_accept\":%" PRIu64
      ",\"rejected_admission\":%" PRIu64 ",\"protocol_errors\":%" PRIu64
      ",\"timeouts_idle\":%" PRIu64 ",\"timeouts_write\":%" PRIu64
      ",\"frames_in\":%" PRIu64 ",\"frames_out\":%" PRIu64
      ",\"bytes_in\":%" PRIu64 ",\"bytes_out\":%" PRIu64
      "},\"latency_ns\":{\"p50\":%" PRIu64
      ",\"p90\":%" PRIu64 ",\"p99\":%" PRIu64 "},\"latency_hist\":[",
      workers, queries, batches, positive, view_hits, corruptions,
      range_errors, shed_chunks, shed_queries, deadline_exceeded,
      quarantine_hits, heal_attempts, heal_successes,
      snapshot_generation, snapshot_labels, snapshot_bytes, snapshot_shards,
      quarantined_shards, net_accepted, net_open_connections,
      net_rejected_accept, net_rejected_admission, net_protocol_errors,
      net_timeouts_idle, net_timeouts_write, net_frames_in, net_frames_out,
      net_bytes_in, net_bytes_out, latency_quantile_ns(0.50),
      latency_quantile_ns(0.90), latency_quantile_ns(0.99));
  std::string json(buf);
  // Emit the histogram sparsely as [bucket_floor_ns, count] pairs; most of
  // the 64 buckets are empty and a dense dump would bury the signal.
  bool first = true;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    if (latency_buckets[b] == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s[%" PRIu64 ",%" PRIu64 "]",
                  first ? "" : ",", latency_bucket_floor(b),
                  latency_buckets[b]);
    json += buf;
    first = false;
  }
  json += "]}";
  return json;
}

}  // namespace plg::service
