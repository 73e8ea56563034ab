#include "service/engine.h"

#include <algorithm>
#include <chrono>
#include <latch>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/distance_scheme.h"
#include "core/label_view.h"
#include "core/thin_fat.h"
#include "util/errors.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace plg::service {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Cold path: the endpoint a DecodeError came from, i.e. the first one
/// whose label fails on its own: its shard fails its CRC, its bits fail
/// their spot checksum, or (adjacency) it has no decode plan. Empty when
/// both labels read cleanly and only the pair decode threw; no shard is
/// blamed then, so a healthy shard is never demoted for its partner.
std::optional<std::uint64_t> failed_endpoint(const Snapshot& snap,
                                             const QueryRequest& q,
                                             QueryKind kind) {
  for (const std::uint64_t x : {q.u, q.v}) {
    try {
      if (!snap.verify_label(x)) return x;
      if (kind == QueryKind::kAdjacency && snap.view(x) == nullptr) return x;
    } catch (const DecodeError&) {
      return x;
    }
  }
  return std::nullopt;
}

/// The pool for `opt`: ServiceOptions::queue_cap is a per-thread share,
/// so the pool-wide cap is queue_cap x threads.
PoolOptions pool_options(const ServiceOptions& opt) {
  const unsigned threads =
      opt.threads != 0 ? opt.threads
                       : std::max(1u, std::thread::hardware_concurrency());
  return PoolOptions{threads, opt.queue_cap * threads, opt.shed_policy};
}

}  // namespace

QueryService::QueryService(std::shared_ptr<const Snapshot> snapshot,
                           ServiceOptions opt)
    : opt_(opt),
      store_((snapshot ? std::move(snapshot)
                       : throw std::invalid_argument(
                             "QueryService: null snapshot"))),
      pool_(pool_options(opt)) {
  if (opt_.chunk == 0) opt_.chunk = 1;
  if (opt_.heal) {
    // Poke once before the thread exists: the initial snapshot may have
    // been admitted with quarantined shards (a structurally bad v3
    // shard), and the healer should pick those up without waiting for a
    // corruption.
    poke_healer();
    healer_ = std::thread([this] { healer_main(); });
  }
}

QueryService::~QueryService() {
  {
    util::MutexLock lock(heal_mu_);
    heal_stop_ = true;
  }
  heal_cv_.notify_all();
  if (healer_.joinable()) healer_.join();
}

// plglint: noexcept-hot-path
void QueryService::run_chunk(const Snapshot& snap, BatchControl& ctl,
                             const QueryRequest* reqs, QueryResult* results,
                             std::size_t count) noexcept {
  const std::uint64_t n = snap.size();

  // Chaos: a slow-worker fault stalls the whole chunk up front, which is
  // what makes deadline checks and queue back-pressure observable.
  const std::uint32_t stall = fault::next_chunk_stall();
  if (stall != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall));
  }

  // The chunk's books live in locals and are published once at the end;
  // the clock is read per query only when there is a deadline to check.
  ChunkCounts cc;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    if (ctl.deadline &&
        (ctl.cancelled.load(std::memory_order_relaxed) ||
         std::chrono::steady_clock::now() >= *ctl.deadline)) {
      // Cooperative cancellation: this chunk (and, via the shared flag,
      // every other chunk of the batch) stops answering; everything
      // unanswered reports kDeadlineExceeded. Cancelled queries are not
      // counted in cc.queries — they were never served.
      ctl.cancelled.store(true, std::memory_order_relaxed);
      for (std::size_t j = i; j < count; ++j) {
        results[j] = QueryResult{QueryStatus::kDeadlineExceeded, false, -1};
      }
      cc.deadline_exceeded = count - i;
      break;
    }
    const QueryRequest& q = reqs[i];
    QueryResult r;
    if (q.u >= n || q.v >= n) {
      r.status = QueryStatus::kOutOfRange;
      ++cc.range_errors;
    } else if (snap.vertex_quarantined(q.u) || snap.vertex_quarantined(q.v)) {
      // The shard is already known-bad; answer in-band without touching
      // its bits. The healer is already on it.
      r.status = QueryStatus::kCorrupt;
      ++cc.quarantine_hits;
    } else if (fault::should_fail_query()) {
      // Chaos: treat this fetch as a decode failure, exactly like the
      // catch below — including the shard tally that drives demotion.
      r.status = QueryStatus::kCorrupt;
      ++cc.corruptions;
      note_shard_corruption(snap, q.u);
    } else {
      try {
        // Fast path: answer straight from the snapshot's decode plans —
        // no label materialization, branch-free word extraction. Falls
        // through to the BitReader path whenever either endpoint lacks a
        // plan (its shard failed its CRC, or plan construction failed at
        // admission); behavioral equivalence with thin_fat_adjacent —
        // answers and DecodeErrors both — is the LabelView contract,
        // differentially fuzzed in tests/test_label_view.cpp.
        const LabelView* va = nullptr;
        const LabelView* vb = nullptr;
        if (opt_.spot_check &&
            (!snap.verify_label(q.u) || !snap.verify_label(q.v))) {
          // plglint-disable(hot-path-throw): DecodeError is the in-band
          // corruption contract; the catch below answers kCorrupt.
          throw DecodeError("service: label fails spot checksum");
        }
        if (opt_.kind == QueryKind::kAdjacency &&
            (va = snap.view(q.u)) != nullptr &&
            (vb = snap.view(q.v)) != nullptr) {
          r.adjacent = label_view_adjacent(*va, *vb);
          ++cc.view_hits;
        } else {
          const Label la = snap.get(q.u);
          const Label lb = snap.get(q.v);
          if (opt_.kind == QueryKind::kAdjacency) {
            r.adjacent = thin_fat_adjacent(la, lb);
          } else {
            const auto d = DistanceScheme::distance(la, lb);
            r.distance = d ? static_cast<std::int64_t>(*d) : -1;
          }
        }
        if (r.adjacent || r.distance >= 0) ++cc.positive;
      } catch (const DecodeError&) {
        // Corruption fallback: the query reports kCorrupt instead of the
        // exception escaping the chunk. Serving continues, and the
        // failing endpoint's shard may be quarantined.
        r.status = QueryStatus::kCorrupt;
        ++cc.corruptions;
        if (const auto x = failed_endpoint(snap, q, opt_.kind)) {
          note_shard_corruption(snap, *x);
        }
      }
    }
    results[i] = r;
    ++cc.queries;
  }
  metrics_.publish(cc, elapsed_ns(t0, std::chrono::steady_clock::now()));
}

std::vector<QueryResult> QueryService::query_batch(
    const std::vector<QueryRequest>& batch, const BatchOptions& bopt) {
  std::vector<QueryResult> results(batch.size());
  if (batch.empty()) return results;

  // One snapshot for the whole batch: acquired before the first chunk is
  // queued, released (possibly freeing a swapped-out snapshot) after the
  // latch confirms every chunk is done.
  const std::shared_ptr<const Snapshot> snap = store_.acquire();
  const std::size_t chunk = opt_.chunk;
  BatchControl ctl;
  ctl.deadline = bopt.deadline;

  // This thread answers the last chunk itself, after queueing the others,
  // so a batch of at most `chunk` queries never leaves the calling thread.
  // Its own thread is the back-pressure, so that chunk is never shed.
  const std::size_t last = (batch.size() - 1) / chunk;
  const auto run_last = [&] {
    const std::size_t begin = last * chunk;
    run_chunk(*snap, ctl, batch.data() + begin, results.data() + begin,
              batch.size() - begin);
  };
  if (last == 0) {
    run_last();
    return results;
  }

  std::latch done(static_cast<std::ptrdiff_t>(last));
  for (std::size_t c = 0; c < last; ++c) {
    const std::size_t begin = c * chunk;
    // The frame outlives every chunk (done.wait below), so jobs may
    // capture the batch/result spans, the control block, and the
    // snapshot by reference. The pool runs exactly one of run/shed per
    // chunk, so the latch always reaches zero — a shed chunk counts
    // down through its fallback.
    ThreadPool::Job job;
    job.run = [this, &snap, &ctl, &done, reqs = batch.data() + begin,
               res = results.data() + begin, chunk] {
      run_chunk(*snap, ctl, reqs, res, chunk);
      done.count_down();
    };
    job.shed = [this, &done, res = results.data() + begin, chunk] {
      // Runs on whichever thread hit the full queue (this one under
      // reject-new, a later submitter under drop-oldest) — never
      // concurrently with job.run, so writing the result span is safe.
      for (std::size_t i = 0; i < chunk; ++i) {
        res[i] = QueryResult{QueryStatus::kOverloaded, false, -1};
      }
      metrics_.shed_chunks.fetch_add(1, std::memory_order_relaxed);
      metrics_.shed_queries.fetch_add(chunk, std::memory_order_relaxed);
      done.count_down();
    };
    pool_.try_submit(std::move(job));
  }
  run_last();
  done.wait();
  return results;
}

QueryResult QueryService::query(const QueryRequest& req) {
  // A batch of one, answered on this thread.
  return query_batch({req}).front();
}

void QueryService::reload(std::shared_ptr<const Snapshot> next) {
  if (!next) throw std::invalid_argument("QueryService::reload: null snapshot");
  store_.swap(std::move(next));
  // The replacement may itself carry quarantined shards (a structurally
  // bad v3 shard); wake the healer to look.
  poke_healer();
}

void QueryService::poke_healer() {
  {
    util::MutexLock lock(heal_mu_);
    heal_poke_ = true;
  }
  heal_cv_.notify_all();
}

void QueryService::drain() { pool_.drain(); }

void QueryService::note_shard_corruption(const Snapshot& snap,
                                         std::uint64_t v) {
  const std::size_t s = snap.shard_map().shard_of(v);
  if (snap.shard_quarantined(s)) {
    // The shard just failed its first-touch CRC, which quarantines it
    // without any tally.
    poke_healer();
    return;
  }
  if (opt_.quarantine_after == 0) return;
  bool demote = false;
  {
    util::MutexLock lock(heal_mu_);
    if (corrupt_snap_id_ != snap.id()) {
      // New snapshot: old tallies describe retired bits. Start over.
      corrupt_snap_id_ = snap.id();
      shard_corruptions_.assign(snap.num_shards(), 0);
    }
    if (s >= shard_corruptions_.size()) return;
    // == (not >=) so exactly one caller demotes per snapshot/shard even
    // when several workers tally corruption concurrently.
    if (++shard_corruptions_[s] == opt_.quarantine_after) demote = true;
  }
  if (!demote) return;
  // Build the demoted snapshot outside heal_mu_. swap_if: if an operator
  // RELOAD replaced `snap` meanwhile, its corruption history is moot and
  // the demotion is dropped rather than clobbering the fresh snapshot.
  auto next = snap.with_quarantined_shard(
      s, "query-time corruption reached quarantine threshold");
  if (store_.swap_if(&snap, std::move(next))) poke_healer();
}

bool QueryService::heal_once() {
  std::shared_ptr<const Snapshot> snap = store_.acquire();
  bool all_clear = true;
  for (std::size_t s = 0; s < snap->num_shards(); ++s) {
    if (!snap->shard_quarantined(s) || !snap->shard_healable(s)) continue;
    metrics_.heal_attempts.fetch_add(1, std::memory_order_relaxed);
    try {
      std::shared_ptr<const Snapshot> healed = snap->heal_shard(s);
      if (store_.swap_if(snap.get(), healed)) {
        // A successor that still quarantines s found the backing itself
        // corrupt: s is now unhealable, which is not a success.
        if (!healed->shard_quarantined(s)) {
          metrics_.heal_successes.fetch_add(1, std::memory_order_relaxed);
        }
        // Keep healing the successor: remaining quarantined shards were
        // carried over by pointer.
        snap = std::move(healed);
      } else {
        // Lost the swap race to a reload; whatever is current now is a
        // different lineage. Back off and re-examine it next pass.
        return false;
      }
    } catch (const DecodeError&) {
      // The fresh image failed its CRC (e.g. the fault plan is still
      // firing).
      all_clear = false;
    }
  }
  return all_clear;
}

void QueryService::healer_main() {
  for (;;) {
    {
      util::MutexLock lock(heal_mu_);
      while (!heal_stop_ && !heal_poke_) lock.wait(heal_cv_);
      if (heal_stop_) return;
      heal_poke_ = false;
    }
    // Retry with capped exponential backoff until every healable shard
    // has been re-admitted. The jitter is a pure function of
    // (heal_seed, attempt) via stream_rng, so a seeded chaos run
    // produces the same heal schedule every time.
    std::uint64_t attempt = 0;
    while (!heal_once()) {
      ++attempt;
      const unsigned shift =
          attempt < 16 ? static_cast<unsigned>(attempt) : 16u;
      std::uint64_t delay_ms = std::uint64_t{opt_.heal_base_ms} << shift;
      if (delay_ms > opt_.heal_max_ms) delay_ms = opt_.heal_max_ms;
      Rng jitter_rng = stream_rng(opt_.heal_seed, attempt);
      delay_ms += jitter_rng.next_below(delay_ms / 2 + 1);
      util::MutexLock lock(heal_mu_);
      if (heal_stop_) return;
      lock.wait_for(heal_cv_, std::chrono::milliseconds(delay_ms));
      if (heal_stop_) return;
    }
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats s = metrics_.aggregate(pool_.size());
  const auto snap = store_.acquire();
  s.snapshot_generation = store_.generation();
  s.snapshot_labels = snap->size();
  s.snapshot_bytes = snap->total_bytes();
  s.snapshot_shards = snap->num_shards();
  s.quarantined_shards = snap->num_quarantined();
  return s;
}

}  // namespace plg::service
