#include "cluster/router.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

namespace plg::cluster {

namespace {

using service::BatchOptions;
using service::QueryRequest;
using service::QueryResult;
using service::QueryStatus;
namespace wire = service::wire;

using Clock = std::chrono::steady_clock;

std::uint32_t ms_until(Clock::time_point deadline, Clock::time_point t) {
  if (deadline <= t) return 0;
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - t)
          .count();
  // +1 rounds up: a sub-millisecond remainder still buys one tick.
  return left >= 1'000'000 ? 1'000'000u
                           : static_cast<std::uint32_t>(left) + 1;
}

/// One per-query wire code -> engine result. False on a code byte this
/// protocol version does not define (protocol error; the connection's
/// stream can no longer be trusted).
bool decode_code(std::uint8_t byte, std::int64_t dist_value,
                 QueryResult& out) noexcept {
  if (byte > static_cast<std::uint8_t>(wire::ResultCode::kUnavailable)) {
    return false;
  }
  out = QueryResult{};
  switch (static_cast<wire::ResultCode>(byte)) {
    case wire::ResultCode::kNo:
      out.status = QueryStatus::kOk;
      out.adjacent = false;
      out.distance = -1;
      return true;
    case wire::ResultCode::kYes:
      out.status = QueryStatus::kOk;
      out.adjacent = true;
      out.distance = dist_value;
      return true;
    case wire::ResultCode::kRange:
      out.status = QueryStatus::kOutOfRange;
      return true;
    case wire::ResultCode::kCorrupt:
      out.status = QueryStatus::kCorrupt;
      return true;
    case wire::ResultCode::kOverloaded:
      out.status = QueryStatus::kOverloaded;
      return true;
    case wire::ResultCode::kDeadline:
      out.status = QueryStatus::kDeadlineExceeded;
      return true;
    case wire::ResultCode::kUnavailable:
      out.status = QueryStatus::kUnavailable;
      return true;
  }
  return false;
}

/// Appends a batch request frame asking batch[i] for every i in `idx`,
/// encoded straight from the batch.
void put_indexed_request(std::vector<std::uint8_t>& out, wire::Verb verb,
                         std::uint32_t request_id,
                         const std::vector<QueryRequest>& batch,
                         std::span<const std::size_t> idx) {
  const std::size_t bytes = idx.size() * wire::kQueryRecordSize;
  wire::put_header(out, verb, wire::FrameStatus::kOk, request_id,
                   static_cast<std::uint32_t>(bytes));
  std::size_t at = out.size();
  out.resize(at + bytes);
  for (const std::size_t i : idx) {
    wire::store_u64(out.data() + at, batch[i].u);
    wire::store_u64(out.data() + at + 8, batch[i].v);
    at += wire::kQueryRecordSize;
  }
}

}  // namespace

Router::Router(ClusterConfig cfg, RouterOptions opt)
    : cfg_(std::move(cfg)),
      opt_(opt),
      pool_(opt.flow_threads) {
  cfg_.validate();
  if (cfg_.num_nodes() > kMaxNodes) {
    throw std::invalid_argument("Router: at most 64 nodes");
  }
  pref_ = cfg_.preference_lists();
  mask_.assign(pref_.size(), 0);
  for (std::size_t s = 0; s < pref_.size(); ++s) {
    for (const std::uint32_t nd : pref_[s]) mask_[s] |= std::uint64_t{1} << nd;
  }
  nodes_.reserve(cfg_.nodes.size());
  for (const NodeEndpoint& ep : cfg_.nodes) {
    auto n = std::make_unique<Node>();
    n->ep = ep;
    {
      util::MutexLock lk(n->mu);
      n->health = NodeHealth(opt_.suspect_after, opt_.quarantine_after);
    }
    nodes_.push_back(std::move(n));
  }
  if (opt_.probe) prober_ = std::thread(&Router::prober_main, this);
}

Router::~Router() {
  {
    util::MutexLock lk(probe_mu_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  drain();
}

std::vector<QueryResult> Router::query_batch(
    const std::vector<QueryRequest>& batch, const BatchOptions& bopt) {
  {
    util::MutexLock lk(drain_mu_);
    ++active_batches_;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(batch.size(), std::memory_order_relaxed);

  // Degradation default: a slot nothing answers reads kUnavailable, so
  // the batch is always fully written no matter which path exits.
  QueryResult unavailable;
  unavailable.status = QueryStatus::kUnavailable;
  std::vector<QueryResult> results(batch.size(), unavailable);
  const Clock::time_point overall =
      bopt.deadline ? *bopt.deadline
                    : now() + std::chrono::milliseconds(opt_.batch_budget_ms);

  // Group queries by ordered signature: owners(u)'s preference list
  // filtered by owners(v)'s bits, built on the stack; the flow is found
  // by a linear search over the batch's few flows.
  std::vector<Flow> flows;
  std::vector<std::uint32_t> flow_of(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint32_t su = cfg_.shard_of(batch[i].u);
    const std::uint32_t sv = cfg_.shard_of(batch[i].v);
    const std::uint64_t mask = mask_[su] & mask_[sv];
    std::uint32_t sig[kMaxNodes];
    std::size_t k = 0;
    for (const std::uint32_t nd : pref_[su]) {
      if ((mask >> nd) & 1) sig[k++] = nd;
    }
    std::size_t f = 0;
    while (f < flows.size() &&
           (flows[f].mask != mask ||
            !std::equal(sig, sig + k, flows[f].nodes.begin()))) {
      ++f;
    }
    if (f == flows.size()) {
      flows.push_back(Flow{mask, std::vector<std::uint32_t>(sig, sig + k)});
    }
    ++flows[f].end;  // a count until the layout pass below
    flow_of[i] = static_cast<std::uint32_t>(f);
  }

  // Pick every flow's primary, then lay the batch out so that the flows
  // sharing a primary are adjacent slices of `order`: one merged frame
  // per primary, encoded straight from those batch indices.
  std::vector<std::uint32_t> ids(flows.size());
  for (std::uint32_t f = 0; f < flows.size(); ++f) {
    flows[f].primary = pick_node(flows[f], 0);
    ids[f] = f;
  }
  std::stable_sort(ids.begin(), ids.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return flows[a].primary < flows[b].primary;
                   });
  std::size_t at = 0;
  for (const std::uint32_t f : ids) {
    const std::size_t count = flows[f].end;
    flows[f].begin = flows[f].end = at;
    at += count;
  }
  std::vector<std::size_t> order(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    order[flows[flow_of[i]].end++] = i;
  }

  // Flows with every eligible replica quarantined sort first (primary
  // -1) and resolve here without any I/O.
  std::size_t first = 0;
  for (; first < ids.size() && flows[ids[first]].primary < 0; ++first) {
    const Flow& fl = flows[ids[first]];
    finish_flow(std::span(order).subspan(fl.begin, fl.end - fl.begin),
                overall, results);
  }

  if (first < ids.size()) {
    // Frames 0..k-2 go onto the pool and this thread runs the last one,
    // so a batch with one primary never leaves the caller. Every flow
    // counts down once, wherever it ends up running, and this call
    // outlives all of them (done.wait below), so jobs capture its locals
    // by reference.
    std::latch done(static_cast<std::ptrdiff_t>(ids.size() - first));
    const std::span<const std::uint32_t> all(ids);
    for (std::size_t b = first; b < ids.size();) {
      std::size_t e = b + 1;
      while (e < ids.size() &&
             flows[ids[e]].primary == flows[ids[b]].primary) {
        ++e;
      }
      const std::span<const std::uint32_t> frame = all.subspan(b, e - b);
      if (e == ids.size()) {
        run_frame(batch, flows, frame, order, overall, results, done);
      } else {
        pool_.submit([this, &batch, &flows, frame, &order, overall, &results,
                      &done] {
          run_frame(batch, flows, frame, order, overall, results, done);
        });
      }
      b = e;
    }
    done.wait();
  }

  {
    util::MutexLock lk(drain_mu_);
    --active_batches_;
  }
  drain_cv_.notify_all();
  return results;
}

void Router::run_frame(const std::vector<QueryRequest>& batch,
                       const std::vector<Flow>& flows,
                       std::span<const std::uint32_t> ids,
                       const std::vector<std::size_t>& order,
                       Clock::time_point overall_deadline,
                       std::vector<QueryResult>& results,
                       std::latch& done) noexcept {
  const Flow& head = flows[ids.front()];
  const std::span<const std::size_t> asked = std::span(order).subspan(
      head.begin, flows[ids.back()].end - head.begin);
  std::vector<Part> parts(ids.size());
  for (std::size_t p = 0; p < ids.size(); ++p) {
    const Flow& fl = flows[ids[p]];
    parts[p].flow = &fl;
    parts[p].offset = fl.begin - head.begin;
    parts[p].count = fl.end - fl.begin;
  }

  bool hedged = false;
  if (opt_.retry.max_attempts > 0 && now() < overall_deadline) {
    const Clock::time_point per_try =
        std::min(overall_deadline,
                 now() + std::chrono::milliseconds(opt_.per_try_ms));
    hedged = exchange(batch, asked, parts,
                      static_cast<std::uint32_t>(head.primary), per_try,
                      results);
  }

  // Split back: every flow the frame left (partly) unanswered retries
  // on its own replicas. All but the last such flow go onto the pool.
  std::size_t left = 0;
  for (const Part& p : parts) {
    if (!p.answered || !p.overloaded.empty()) ++left;
  }
  if (parts.size() > 1 && (hedged || left > 0)) {
    splits_.fetch_add(1, std::memory_order_relaxed);
  }
  std::ptrdiff_t resolved_here = 0;
  for (Part& p : parts) {
    if (p.answered && p.overloaded.empty()) {
      ++resolved_here;
      continue;
    }
    const std::span<const std::size_t> mine = asked.subspan(p.offset, p.count);
    std::vector<std::size_t> pending =
        p.answered ? std::move(p.overloaded)
                   : std::vector<std::size_t>(mine.begin(), mine.end());
    if (--left == 0) {
      run_flow(batch, *p.flow, std::move(pending), overall_deadline, results);
      ++resolved_here;
    } else {
      pool_.submit([this, &batch, flow = p.flow, pending = std::move(pending),
                    overall_deadline, &results, &done]() mutable {
        run_flow(batch, *flow, std::move(pending), overall_deadline, results);
        done.count_down();
      });
    }
  }
  done.count_down(resolved_here);
}

void Router::run_flow(const std::vector<QueryRequest>& batch, const Flow& flow,
                      std::vector<std::size_t> pending,
                      Clock::time_point overall_deadline,
                      std::vector<QueryResult>& results) noexcept {
  // Attempt 0 was the merged frame at rotation 0; attempt k asks the
  // flow's k-th routable replica (wrapping).
  const std::uint64_t seq = flow_seq_.fetch_add(1, std::memory_order_relaxed);
  for (std::uint32_t attempt = 1;
       attempt < opt_.retry.max_attempts && !pending.empty(); ++attempt) {
    if (now() >= overall_deadline) break;
    const int node = pick_node(flow, attempt);
    if (node < 0) break;  // every eligible replica is quarantined
    const auto nd = static_cast<std::uint32_t>(node);
    nodes_[nd]->retries.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t sleep_ms =
        backoff_ms(opt_.retry, retry_stream(nd, seq), attempt);
    const Clock::time_point wake = std::min(
        overall_deadline, now() + std::chrono::milliseconds(sleep_ms));
    std::this_thread::sleep_until(wake);
    if (now() >= overall_deadline) break;
    const Clock::time_point per_try = std::min(
        overall_deadline, now() + std::chrono::milliseconds(opt_.per_try_ms));
    Part part;
    part.flow = &flow;
    part.count = pending.size();
    exchange(batch, pending, std::span(&part, 1), nd, per_try, results);
    if (part.answered) pending = std::move(part.overloaded);
  }
  finish_flow(pending, overall_deadline, results);
}

void Router::finish_flow(std::span<const std::size_t> pending,
                         Clock::time_point overall_deadline,
                         std::vector<QueryResult>& results) {
  if (pending.empty()) return;
  const bool late = now() >= overall_deadline;
  std::uint64_t marked = 0;
  for (const std::size_t i : pending) {
    if (results[i].status != QueryStatus::kUnavailable) continue;
    if (late) results[i].status = QueryStatus::kDeadlineExceeded;
    ++marked;
  }
  // Past the deadline the slots still carrying the default ran out of
  // time; before it, replicas are exhausted with time to spare and the
  // key range is genuinely unreachable right now.
  (late ? deadline_exceeded_ : unavailable_)
      .fetch_add(marked, std::memory_order_relaxed);
}

int Router::pick_node(const Flow& flow, std::uint32_t start,
                      int exclude) const {
  const std::size_t k = flow.nodes.size();
  int suspect = -1;
  for (std::size_t step = 0; step < k; ++step) {
    const std::uint32_t nd = flow.nodes[(start + step) % k];
    if (static_cast<int>(nd) == exclude) continue;
    NodeState st;
    {
      util::MutexLock lk(nodes_[nd]->mu);
      st = nodes_[nd]->health.state();
    }
    if (st == NodeState::kHealthy) return static_cast<int>(nd);
    if (st == NodeState::kSuspect && suspect < 0) {
      suspect = static_cast<int>(nd);
    }
  }
  return suspect;
}

std::optional<Router::PooledConn> Router::acquire_conn(
    Node& n, std::uint32_t timeout_ms) {
  {
    util::MutexLock lk(n.mu);
    if (!n.idle.empty()) {
      PooledConn c = std::move(n.idle.back());
      n.idle.pop_back();
      return c;
    }
  }
  PooledConn c;
  c.client.set_timeout_ms(timeout_ms == 0 ? 1 : timeout_ms);
  if (!c.client.connect(n.ep.port, n.ep.host)) return std::nullopt;
  return c;
}

void Router::release_conn(Node& n, PooledConn&& conn) {
  conn.client.set_timeout_ms(0);  // pool default; callers re-arm per use
  {
    util::MutexLock lk(n.mu);
    if (n.idle.size() < opt_.pool_cap) {
      n.idle.push_back(std::move(conn));
      return;
    }
  }
  conn.client.close();
}

void Router::record_outcome(std::uint32_t node, bool success) {
  Node& n = *nodes_[node];
  HealthEvent ev;
  {
    util::MutexLock lk(n.mu);
    ev = success ? n.health.record_success() : n.health.record_failure();
    if (ev == HealthEvent::kBecameQuarantined) {
      n.next_probe = now();
      n.probe_fails = 0;
    }
  }
  switch (ev) {
    case HealthEvent::kNone:
      break;
    case HealthEvent::kBecameSuspect:
      n.to_suspect.fetch_add(1, std::memory_order_relaxed);
      break;
    case HealthEvent::kBecameQuarantined:
      n.to_quarantined.fetch_add(1, std::memory_order_relaxed);
      {
        util::MutexLock lk(probe_mu_);
        probe_poke_ = true;
      }
      probe_cv_.notify_all();
      break;
    case HealthEvent::kRecovered:
      n.recovered.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

bool Router::pump_arm(Arm& a) {
  std::uint8_t tmp[4096];
  for (;;) {
    const ssize_t r =
        ::recv(a.conn->client.fd(), tmp, sizeof(tmp), MSG_DONTWAIT);
    if (r > 0) {
      a.buf.insert(a.buf.end(), tmp, tmp + r);
      continue;
    }
    if (r == 0) return false;  // orderly close mid-response
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

Router::ArmFrame Router::arm_frame(const Arm& a,
                                   wire::FrameHeader& hdr) const {
  if (a.buf.size() < wire::kHeaderSize) return ArmFrame::kNeedMore;
  const wire::HeaderError err =
      wire::decode_header(a.buf.data(), a.buf.size(), opt_.max_frame_payload,
                          hdr, /*require_request=*/false);
  if (err != wire::HeaderError::kOk && err != wire::HeaderError::kNeedMore) {
    return ArmFrame::kMalformed;
  }
  if (err == wire::HeaderError::kNeedMore) return ArmFrame::kNeedMore;
  const std::size_t need = wire::kHeaderSize + hdr.length;
  if (a.buf.size() < need) return ArmFrame::kNeedMore;
  // Exactly one response may be in flight per connection; surplus bytes
  // mean the peer broke the request/response rhythm.
  return a.buf.size() == need ? ArmFrame::kComplete : ArmFrame::kMalformed;
}

bool Router::exchange(const std::vector<QueryRequest>& batch,
                      std::span<const std::size_t> asked,
                      std::span<Part> parts, std::uint32_t primary,
                      Clock::time_point deadline,
                      std::vector<QueryResult>& results) {
  const wire::Verb verb = opt_.kind == service::QueryKind::kAdjacency
                              ? wire::Verb::kAdjBatch
                              : wire::Verb::kDistBatch;
  const std::size_t record =
      verb == wire::Verb::kAdjBatch ? 1 : wire::kDistRecordSize;

  // Opens a connection to `node`, sends `qs`, and arms the response
  // reader. Any failure is recorded against the node's health.
  std::vector<std::uint8_t> frame;
  auto start_arm = [&](std::uint32_t node, std::span<const std::size_t> qs,
                       Arm& arm) -> bool {
    Node& n = *nodes_[node];
    const std::uint32_t left_ms = ms_until(deadline, now());
    if (left_ms == 0) return false;
    std::optional<PooledConn> conn = acquire_conn(
        n, std::min(opt_.connect_timeout_ms == 0 ? 1 : opt_.connect_timeout_ms,
                    left_ms));
    if (!conn) {
      n.transport_errors.fetch_add(1, std::memory_order_relaxed);
      record_outcome(node, false);
      return false;
    }
    arm.node = node;
    arm.request_id = conn->next_request_id++;
    frame.clear();
    put_indexed_request(frame, verb, arm.request_id, batch, qs);
    if (!conn->client.send_bytes_until(frame, deadline)) {
      conn->client.close();
      n.transport_errors.fetch_add(1, std::memory_order_relaxed);
      record_outcome(node, false);
      return false;
    }
    n.sent.fetch_add(1, std::memory_order_relaxed);
    node_frames_.fetch_add(1, std::memory_order_relaxed);
    if (arm.is_hedge) n.hedges.fetch_add(1, std::memory_order_relaxed);
    arm.conn = std::move(*conn);
    arm.sent_at = now();
    return true;
  };

  // Decodes an arm's kOk payload into the slots of the parts it asked
  // that are still unanswered. False on a size or code-byte violation
  // (protocol error), checked before any slot is written.
  auto decode_and_fill = [&](const Arm& a, const std::uint8_t* payload,
                             std::uint32_t length) -> bool {
    const std::size_t nq = a.is_hedge ? parts[a.part].count : asked.size();
    if (length != nq * record) return false;
    for (std::size_t q = 0; q < nq; ++q) {
      if (payload[q * record] >
          static_cast<std::uint8_t>(wire::ResultCode::kUnavailable)) {
        return false;
      }
    }
    for (std::size_t p = 0; p < parts.size(); ++p) {
      Part& part = parts[p];
      if (part.answered || (a.is_hedge && a.part != p)) continue;
      const std::uint8_t* rec =
          payload + (a.is_hedge ? 0 : part.offset * record);
      for (std::size_t q = 0; q < part.count; ++q, rec += record) {
        const std::int64_t dist =
            record == 1 ? -1
                        : static_cast<std::int64_t>(wire::get_u64(rec + 1));
        const std::size_t i = asked[part.offset + q];
        decode_code(rec[0], dist, results[i]);
        if (results[i].status == QueryStatus::kOverloaded) {
          part.overloaded.push_back(i);
        }
      }
      part.answered = true;
    }
    return true;
  };

  std::vector<Arm> arms;
  arms.reserve(1 + parts.size());
  arms.emplace_back();
  if (!start_arm(primary, asked, arms[0])) return false;  // caller retries
  Arm& lead = arms[0];

  auto close_arm = [](Arm& a) {
    a.conn->client.close();
    a.conn.reset();
  };
  // Closes every arm whose parts are all answered: its response may
  // still be in flight, so its connection can never be reused.
  auto close_losers = [&] {
    bool all = true;
    for (const Part& p : parts) {
      all = all && p.answered;
      if (p.answered && p.hedge_arm > 0 && arms[p.hedge_arm].conn) {
        close_arm(arms[p.hedge_arm]);
      }
    }
    if (all && lead.conn) close_arm(lead);
  };
  // A part is still in play while an arm that asked it is alive.
  auto in_play = [&] {
    for (const Part& p : parts) {
      if (p.answered) continue;
      if (lead.conn || (p.hedge_arm > 0 && arms[p.hedge_arm].conn)) {
        return true;
      }
    }
    return false;
  };

  // Hedge schedule: adaptive delay from the primary's latency history,
  // armed when some part has another replica to hedge to.
  Node& pn = *nodes_[primary];
  Clock::time_point hedge_at = Clock::time_point::max();
  if (opt_.hedge.enabled &&
      std::any_of(parts.begin(), parts.end(),
                  [](const Part& p) { return p.flow->nodes.size() > 1; })) {
    hedge_at = lead.sent_at +
               std::chrono::nanoseconds(hedge_delay_ns(
                   opt_.hedge, pn.latency,
                   pn.latency_samples.load(std::memory_order_relaxed)));
  }

  bool hedged = false;
  std::vector<pollfd> pfds(arms.capacity());
  while (in_play()) {
    const Clock::time_point t = now();
    if (t >= deadline) break;  // surviving arms timed out
    const Clock::time_point wake = std::min(deadline, hedge_at);

    for (std::size_t k = 0; k < arms.size(); ++k) {
      // poll() ignores negative descriptors: closed arms stay in place.
      pfds[k].fd = arms[k].conn ? arms[k].conn->client.fd() : -1;
      pfds[k].events = POLLIN;
      pfds[k].revents = 0;
    }
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(arms.size()),
                          static_cast<int>(ms_until(wake, t)));
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    for (std::size_t k = 0; k < arms.size(); ++k) {
      Arm& a = arms[k];
      if (!a.conn ||
          (pfds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      Node& n = *nodes_[a.node];
      if (!pump_arm(a)) {
        n.transport_errors.fetch_add(1, std::memory_order_relaxed);
        record_outcome(a.node, false);
        close_arm(a);
        continue;
      }
      wire::FrameHeader hdr;
      const ArmFrame st = arm_frame(a, hdr);
      if (st == ArmFrame::kNeedMore) continue;
      bool protocol_bad = st == ArmFrame::kMalformed;
      bool retriable_error = false;
      if (!protocol_bad) {
        // Correlation check FIRST, error frames included: a frame that
        // does not echo this connection's in-flight id must never be
        // matched against the hedged pair.
        if (hdr.request_id != a.request_id ||
            (hdr.verb != verb && hdr.verb != wire::Verb::kError)) {
          protocol_bad = true;
        } else if (hdr.verb == wire::Verb::kError) {
          retriable_error = retriable_frame_status(
              static_cast<wire::FrameStatus>(hdr.status));
          protocol_bad = !retriable_error;
        } else if (hdr.status !=
                   static_cast<std::uint8_t>(wire::FrameStatus::kOk)) {
          protocol_bad = true;
        } else if (!decode_and_fill(a, a.buf.data() + wire::kHeaderSize,
                                    hdr.length)) {
          protocol_bad = true;
        } else {
          // Winner: id-verified complete kOk response.
          n.ok.fetch_add(1, std::memory_order_relaxed);
          const std::uint64_t lat_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  now() - a.sent_at)
                  .count());
          n.latency.record(lat_ns);
          n.latency_samples.fetch_add(1, std::memory_order_relaxed);
          record_outcome(a.node, true);
          if (a.is_hedge) n.hedge_wins.fetch_add(1, std::memory_order_relaxed);
          release_conn(n, std::move(*a.conn));
          a.conn.reset();
          close_losers();
          continue;
        }
      }
      if (protocol_bad) {
        n.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      } else {
        n.transport_errors.fetch_add(1, std::memory_order_relaxed);
      }
      record_outcome(a.node, false);
      close_arm(a);
    }

    // Per-flow hedging: once, while the primary is still out, every
    // unanswered part with another routable replica asks it for its own
    // slice; parts with none keep waiting on the primary.
    if (lead.conn && now() >= hedge_at) {
      hedge_at = Clock::time_point::max();
      for (std::size_t p = 0; p < parts.size(); ++p) {
        Part& part = parts[p];
        if (part.answered) continue;
        const int node = pick_node(*part.flow, 0, static_cast<int>(primary));
        if (node < 0) continue;
        Arm h;
        h.is_hedge = true;
        h.part = p;
        if (start_arm(static_cast<std::uint32_t>(node),
                      asked.subspan(part.offset, part.count), h)) {
          part.hedge_arm = arms.size();
          arms.push_back(std::move(h));
          hedged = true;
        }
      }
    }
  }

  // Deadline (or poll failure) with arms still in flight: every
  // survivor is a timeout against its node.
  for (Arm& a : arms) {
    if (!a.conn) continue;
    nodes_[a.node]->timeouts.fetch_add(1, std::memory_order_relaxed);
    record_outcome(a.node, false);
    close_arm(a);
  }
  return hedged;
}

void Router::prober_main() {
  for (;;) {
    bool any_quarantined = false;
    for (const std::unique_ptr<Node>& n : nodes_) {
      util::MutexLock lk(n->mu);
      if (n->health.state() == NodeState::kQuarantined) {
        any_quarantined = true;
        break;
      }
    }
    {
      util::MutexLock lk(probe_mu_);
      if (probe_stop_) return;
      if (!probe_poke_) {
        if (any_quarantined) {
          lk.wait_for(probe_cv_,
                      std::chrono::milliseconds(
                          opt_.probe_tick_ms == 0 ? 1 : opt_.probe_tick_ms));
        } else {
          lk.wait(probe_cv_);
        }
      }
      probe_poke_ = false;
      if (probe_stop_) return;
    }
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      Node& n = *nodes_[i];
      bool due = false;
      {
        util::MutexLock lk(n.mu);
        due = n.health.state() == NodeState::kQuarantined &&
              now() >= n.next_probe;
      }
      if (!due) continue;
      n.probes.fetch_add(1, std::memory_order_relaxed);
      const bool ok = probe_once(n.ep);
      HealthEvent ev = HealthEvent::kNone;
      {
        util::MutexLock lk(n.mu);
        if (ok) {
          ev = n.health.record_success();
          n.probe_fails = 0;
        } else {
          if (n.probe_fails < UINT32_MAX) ++n.probe_fails;
          RetryPolicy probe_policy;
          probe_policy.base_ms = opt_.probe_base_ms;
          probe_policy.max_ms = opt_.probe_max_ms;
          probe_policy.seed = opt_.retry.seed ^ 0x70726f6265ull;  // "probe"
          n.next_probe =
              now() + std::chrono::milliseconds(
                          backoff_ms(probe_policy, i, n.probe_fails));
        }
      }
      if (ev == HealthEvent::kRecovered) {
        n.recovered.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

bool Router::probe_once(const NodeEndpoint& ep) {
  service::NetClient c;
  c.set_timeout_ms(opt_.probe_timeout_ms == 0 ? 1 : opt_.probe_timeout_ms);
  if (!c.connect(ep.port, ep.host)) return false;
  service::NetResponse resp;
  if (!c.ping(1, resp)) return false;
  return resp.header.verb == wire::Verb::kPing && resp.header.request_id == 1;
}

service::ServiceStats Router::stats() const {
  service::ServiceStats s;
  s.workers = pool_.size();
  s.queries = queries_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Node>& n : nodes_) {
    for (int b = 0; b < service::kLatencyBuckets; ++b) {
      s.latency_buckets[b] += n->latency.bucket(b);
    }
  }
  return s;
}

NodeStatsView Router::node_stats(std::uint32_t node) const {
  const Node& n = *nodes_[node];
  NodeStatsView v;
  {
    util::MutexLock lk(n.mu);
    v.state = n.health.state();
  }
  v.sent = n.sent.load(std::memory_order_relaxed);
  v.ok = n.ok.load(std::memory_order_relaxed);
  v.retries = n.retries.load(std::memory_order_relaxed);
  v.hedges = n.hedges.load(std::memory_order_relaxed);
  v.hedge_wins = n.hedge_wins.load(std::memory_order_relaxed);
  v.transport_errors = n.transport_errors.load(std::memory_order_relaxed);
  v.protocol_errors = n.protocol_errors.load(std::memory_order_relaxed);
  v.timeouts = n.timeouts.load(std::memory_order_relaxed);
  v.to_suspect = n.to_suspect.load(std::memory_order_relaxed);
  v.to_quarantined = n.to_quarantined.load(std::memory_order_relaxed);
  v.recovered = n.recovered.load(std::memory_order_relaxed);
  v.probes = n.probes.load(std::memory_order_relaxed);
  return v;
}

NodeState Router::node_state(std::uint32_t node) const {
  util::MutexLock lk(nodes_[node]->mu);
  return nodes_[node]->health.state();
}

std::string Router::extra_stats_json() const {
  std::string out = "\"cluster\":{";
  out += "\"nodes_total\":" + std::to_string(cfg_.num_nodes());
  out += ",\"replication\":" + std::to_string(cfg_.replication);
  out += ",\"key_shards\":" + std::to_string(cfg_.key_shards);
  out += ",\"batches\":" +
         std::to_string(batches_.load(std::memory_order_relaxed));
  out += ",\"unavailable\":" +
         std::to_string(unavailable_.load(std::memory_order_relaxed));
  out += ",\"node_frames\":" +
         std::to_string(node_frames_.load(std::memory_order_relaxed));
  out += ",\"splits\":" +
         std::to_string(splits_.load(std::memory_order_relaxed));
  out += ",\"nodes\":[";
  for (std::uint32_t i = 0; i < cfg_.num_nodes(); ++i) {
    const NodeStatsView v = node_stats(i);
    if (i > 0) out += ',';
    out += "{\"host\":\"" + cfg_.nodes[i].host + "\"";
    out += ",\"port\":" + std::to_string(cfg_.nodes[i].port);
    out += ",\"state\":\"" + std::string(node_state_name(v.state)) + "\"";
    out += ",\"sent\":" + std::to_string(v.sent);
    out += ",\"ok\":" + std::to_string(v.ok);
    out += ",\"retries\":" + std::to_string(v.retries);
    out += ",\"hedges\":" + std::to_string(v.hedges);
    out += ",\"hedge_wins\":" + std::to_string(v.hedge_wins);
    out += ",\"transport_errors\":" + std::to_string(v.transport_errors);
    out += ",\"protocol_errors\":" + std::to_string(v.protocol_errors);
    out += ",\"timeouts\":" + std::to_string(v.timeouts);
    out += ",\"to_suspect\":" + std::to_string(v.to_suspect);
    out += ",\"to_quarantined\":" + std::to_string(v.to_quarantined);
    out += ",\"recovered\":" + std::to_string(v.recovered);
    out += ",\"probes\":" + std::to_string(v.probes);
    out += "}";
  }
  out += "]}";
  return out;
}

void Router::drain() {
  {
    util::MutexLock lk(drain_mu_);
    while (active_batches_ > 0) lk.wait(drain_cv_);
  }
  pool_.drain();
}

}  // namespace plg::cluster
