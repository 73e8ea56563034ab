// Span ledger for plg-bench's traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public entry point; nothing inside the library is instrumented. A span
// has a name (the layer), start and end, the span that caused it
// (parent, -1 for a root), a trace id shared by the spans of one request
// (a frame's request id, or the phase id), and a work count (queries).
// Spans stay in memory; summarize() writes them out when the run ends.
//
// A layer's self time is its spans' duration minus the part of each
// interval that its child spans cover.
//
// A Ledger is single-threaded: each client thread records into its own
// and the owner absorb()s them afterwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace plgbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int parent = -1;
  std::uint64_t trace_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 0;
};

class Ledger {
 public:
  /// Opens a span now; returns its id.
  int begin(std::string name, int parent = -1, std::uint64_t trace_id = 0);
  /// Closes span `id` now, crediting it with `count` units of work.
  void end(int id, std::uint64_t count = 0);
  /// Records an already-timed span.
  int add(Span s);
  /// Moves `other`'s spans in, re-basing their parent ids; its roots
  /// become children of `root_parent` (a span of this ledger, or -1).
  void absorb(Ledger&& other, int root_parent);

  const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  std::size_t size() const noexcept { return spans_.size(); }

  /// Total duration of every span named `name`, in ns.
  double total_ns(const std::string& name) const;
  /// Total work count of every span named `name`.
  std::uint64_t total_count(const std::string& name) const;

  /// Per-name aggregate: spans, total_s, self_s, count. Self times are
  /// >= 0 by construction (children are clipped to their parent).
  std::string summarize() const;

  /// Smallest self time over all spans (the smoke test asserts >= 0).
  double min_self_ns() const;

 private:
  std::vector<double> self_ns() const;
  std::vector<Span> spans_;
};

}  // namespace plgbench
