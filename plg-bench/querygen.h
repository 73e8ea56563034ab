// Seeded query generator for plg-bench.
//
// Produces the (u, v) pairs a workload sends, shaped like traffic rather
// than like uniform noise (1M uniform pairs on a power-law graph hold
// only a few dozen edges, so a uniform stream exercises almost nothing
// but the "no" path). Endpoint modes:
//
//   kUniform  both endpoints uniform over [0, n);
//   kDegree   both endpoints drawn in proportion to degree (hubs are hot,
//             which is the traffic the P_h model implies);
//   kStrata   a class stratum is drawn first (thin×thin, thin×fat or
//             fat×fat, one third each; out-of-range pairs come from
//             out_of_range_frac), then endpoints uniformly within it.
//
// On top of any mode, `positive_frac` of the pairs are drawn from real
// edges (in kStrata mode, from edges of the chosen stratum). For the
// distance verb, `dist_strata` replaces the positive knob: a pair is
// drawn at hop distance 1 (an edge), 2 (a two-hop walk) or "far" (two
// independent endpoints). The generator only aims at a mix; the
// achieved mix is measured against the oracle's answers (measure_mix)
// and printed by every run, so drift is visible.
//
// The same seed, graph and spec always give the same stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace plgbench {

struct Query {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
};

enum class Endpoints : std::uint8_t { kUniform, kDegree, kStrata };

/// Class strata, in the order counts use them.
enum Stratum : int { kThinThin = 0, kThinFat = 1, kFatFat = 2, kOutOfRange = 3 };
inline constexpr int kNumStrata = 4;

struct MixSpec {
  Endpoints endpoints = Endpoints::kUniform;
  /// Share of pairs drawn from real edges (ignored with dist_strata).
  double positive_frac = 0.0;
  /// Share of pairs with one endpoint past the last vertex.
  double out_of_range_frac = 0.0;
  /// Distance verb: draw pairs at hop distance 1, 2 and "far", one third
  /// each, instead of using positive_frac.
  bool dist_strata = false;
};

/// The expected answer for one query, computed during set-up.
struct Expect {
  bool in_range = true;        ///< false: the answer must be kRange
  std::int64_t value = 0;      ///< adjacency 0/1, or distance (-1 = far)
};

/// Generates `count` queries over graph g. `fat[v]` is v's class.
std::vector<Query> generate_queries(const plg::Graph& g,
                                    const std::vector<bool>& fat,
                                    const MixSpec& spec, std::size_t count,
                                    std::uint64_t seed);

/// The achieved mix of a stream with its expected answers.
struct Mix {
  std::uint64_t queries = 0;
  std::uint64_t positives = 0;         ///< adjacent, or within the hop bound
  std::uint64_t strata[kNumStrata] = {};
  std::uint64_t dist[3] = {};          ///< distance 1, 2, other (DIST only)
  std::uint64_t distinct_endpoints = 0;
  std::string to_json(bool distance) const;
};

Mix measure_mix(const std::vector<Query>& qs, const std::vector<Expect>& ex,
                const std::vector<bool>& fat, bool distance);

}  // namespace plgbench
