#include "querygen.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/random.h"

namespace plgbench {
namespace {

using plg::Edge;
using plg::Graph;
using plg::Rng;
using plg::Vertex;

/// Vertex and edge pools the modes sample from.
struct Pools {
  std::vector<Edge> edges;            ///< every edge once
  std::vector<Edge> by_stratum[3];    ///< edges grouped by class pair
  std::vector<Vertex> by_class[2];    ///< thin, fat
};

int stratum_of(bool fat_u, bool fat_v) {
  return static_cast<int>(fat_u) + static_cast<int>(fat_v);
}

Pools make_pools(const Graph& g, const std::vector<bool>& fat) {
  Pools p;
  p.edges = g.edge_list();
  for (const Edge& e : p.edges) {
    p.by_stratum[stratum_of(fat[e.u], fat[e.v])].push_back(e);
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    p.by_class[fat[v] ? 1 : 0].push_back(v);
  }
  return p;
}

class Sampler {
 public:
  Sampler(const Graph& g, const std::vector<bool>& fat, const MixSpec& spec,
          std::uint64_t seed)
      : g_(g), fat_(fat), spec_(spec), pools_(make_pools(g, fat)), rng_(seed) {}

  Query next() {
    const std::uint64_t n = g_.num_vertices();
    if (spec_.out_of_range_frac > 0 && rng_.next_bool(spec_.out_of_range_frac)) {
      Query q{rng_.next_below(n), n + rng_.next_below(n)};
      if (rng_.next_bool(0.5)) std::swap(q.u, q.v);
      return q;
    }
    // The class stratum wanted (thin×thin, thin×fat, fat×fat, each equally
    // likely), or -1 for "any".
    const int stratum = spec_.endpoints == Endpoints::kStrata
                            ? static_cast<int>(rng_.next_below(3))
                            : -1;
    if (spec_.dist_strata) {
      // Hop distance 1, 2 or "far", each equally likely.
      switch (rng_.next_below(3)) {
        case 0: return edge(stratum);
        case 1: return two_hop(stratum);
        default: return independent(stratum);
      }
    }
    if (spec_.positive_frac > 0 && rng_.next_bool(spec_.positive_frac)) {
      return edge(stratum);
    }
    return independent(stratum);
  }

 private:
  /// A vertex of the given class (-1: any), per the endpoint mode.
  Vertex endpoint(int cls) {
    if (cls >= 0 && !pools_.by_class[cls].empty()) {
      const auto& pool = pools_.by_class[cls];
      return pool[rng_.next_below(pool.size())];
    }
    if (spec_.endpoints == Endpoints::kDegree && !pools_.edges.empty()) {
      const Edge& e = pools_.edges[rng_.next_below(pools_.edges.size())];
      return rng_.next_bool(0.5) ? e.u : e.v;
    }
    return static_cast<Vertex>(rng_.next_below(g_.num_vertices()));
  }

  /// The two endpoint classes of a stratum, in random order.
  std::pair<int, int> classes(int stratum) {
    if (stratum < 0) return {-1, -1};
    if (stratum == kThinFat) {
      return rng_.next_bool(0.5) ? std::pair{0, 1} : std::pair{1, 0};
    }
    return {stratum == kFatFat ? 1 : 0, stratum == kFatFat ? 1 : 0};
  }

  Query independent(int stratum) {
    const auto [a, b] = classes(stratum);
    return Query{endpoint(a), endpoint(b)};
  }

  Query edge(int stratum) {
    const std::vector<Edge>* pool = &pools_.edges;
    if (stratum >= 0 && !pools_.by_stratum[stratum].empty()) {
      pool = &pools_.by_stratum[stratum];
    }
    if (pool->empty()) return independent(stratum);
    const Edge& e = (*pool)[rng_.next_below(pool->size())];
    return rng_.next_bool(0.5) ? Query{e.u, e.v} : Query{e.v, e.u};
  }

  /// u -> w -> v with v != u and v of the wanted class; the oracle, not
  /// this walk, decides the true distance (u and v may also be adjacent).
  Query two_hop(int stratum) {
    const auto [a, b] = classes(stratum);
    Query last = independent(stratum);
    for (int attempt = 0; attempt < 64; ++attempt) {
      const Vertex u = endpoint(a);
      const auto nu = g_.neighbors(u);
      if (nu.empty()) continue;
      const Vertex w = nu[rng_.next_below(nu.size())];
      const auto nw = g_.neighbors(w);
      const Vertex v = nw[rng_.next_below(nw.size())];
      last = Query{u, v};
      if (v != u && (b < 0 || fat_[v] == (b == 1))) return last;
    }
    return last;
  }

  const Graph& g_;
  const std::vector<bool>& fat_;
  const MixSpec& spec_;
  Pools pools_;
  Rng rng_;
};

}  // namespace

std::vector<Query> generate_queries(const Graph& g, const std::vector<bool>& fat,
                                    const MixSpec& spec, std::size_t count,
                                    std::uint64_t seed) {
  Sampler s(g, fat, spec, seed);
  std::vector<Query> qs(count);
  for (Query& q : qs) q = s.next();
  return qs;
}

Mix measure_mix(const std::vector<Query>& qs, const std::vector<Expect>& ex,
                const std::vector<bool>& fat, bool distance) {
  Mix m;
  m.queries = qs.size();
  std::vector<std::uint64_t> ends;
  ends.reserve(2 * qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ends.push_back(qs[i].u);
    ends.push_back(qs[i].v);
    if (!ex[i].in_range) {
      ++m.strata[kOutOfRange];
      continue;
    }
    ++m.strata[stratum_of(fat[qs[i].u], fat[qs[i].v])];
    if (distance) {
      m.positives += ex[i].value >= 0 ? 1u : 0u;
      ++m.dist[ex[i].value == 1 ? 0 : ex[i].value == 2 ? 1 : 2];
    } else {
      m.positives += ex[i].value != 0 ? 1u : 0u;
    }
  }
  std::sort(ends.begin(), ends.end());
  m.distinct_endpoints = static_cast<std::uint64_t>(
      std::unique(ends.begin(), ends.end()) - ends.begin());
  return m;
}

std::string Mix::to_json(bool distance) const {
  const double q = queries > 0 ? static_cast<double>(queries) : 1.0;
  const auto share = [&](std::uint64_t c) { return static_cast<double>(c) / q; };
  char buf[512];
  int len = std::snprintf(
      buf, sizeof buf,
      "{\"queries\":%llu,\"positive_share\":%.4f,\"thin_thin\":%.4f,"
      "\"thin_fat\":%.4f,\"fat_fat\":%.4f,\"out_of_range\":%.4f,"
      "\"distinct_endpoints\":%llu",
      static_cast<unsigned long long>(queries), share(positives),
      share(strata[kThinThin]), share(strata[kThinFat]),
      share(strata[kFatFat]), share(strata[kOutOfRange]),
      static_cast<unsigned long long>(distinct_endpoints));
  std::string out(buf, static_cast<std::size_t>(len));
  if (distance) {
    len = std::snprintf(buf, sizeof buf,
                        ",\"dist_1\":%.4f,\"dist_2\":%.4f,\"dist_other\":%.4f",
                        share(dist[0]), share(dist[1]), share(dist[2]));
    out.append(buf, static_cast<std::size_t>(len));
  }
  return out + "}";
}

}  // namespace plgbench
