#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace plgbench {

int Ledger::begin(std::string name, int parent, std::uint64_t trace_id) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.trace_id = trace_id;
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  return add(std::move(s));
}

void Ledger::end(int id, std::uint64_t count) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  s.count += count;
}

int Ledger::add(Span s) {
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Ledger::absorb(Ledger&& other, int root_parent) {
  const int base = static_cast<int>(spans_.size());
  for (Span& s : other.spans_) {
    s.parent = s.parent >= 0 ? s.parent + base : root_parent;
    spans_.push_back(std::move(s));
  }
  other.spans_.clear();
}

double Ledger::total_ns(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.name == name) t += static_cast<double>(s.end_ns - s.start_ns);
  }
  return t;
}

std::uint64_t Ledger::total_count(const std::string& name) const {
  std::uint64_t c = 0;
  for (const Span& s : spans_) {
    if (s.name == name) c += s.count;
  }
  return c;
}

std::vector<double> Ledger::self_ns() const {
  // Child intervals per parent, clipped to the parent and merged, so
  // overlapping children (two client threads under one phase) count once.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t lo = 0;
    std::int64_t hi = -1;
    for (const auto& [a, b] : iv) {
      if (hi < lo || a > hi) {
        covered += hi >= lo ? hi - lo : 0;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    covered += hi >= lo ? hi - lo : 0;
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                  covered);
  }
  return self;
}

double Ledger::min_self_ns() const {
  const std::vector<double> self = self_ns();
  double m = 0;
  for (const double s : self) m = std::min(m, s);
  return m;
}

std::string Ledger::summarize() const {
  struct Agg {
    std::uint64_t spans = 0;
    double total = 0;
    double self = 0;
    std::uint64_t count = 0;
  };
  const std::vector<double> self = self_ns();
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Agg& a = by_name[spans_[i].name];
    a.spans += 1;
    a.total += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    a.self += self[i];
    a.count += spans_[i].count;
  }
  std::string out = "{";
  char buf[320];
  for (const auto& [name, a] : by_name) {
    const int len = std::snprintf(
        buf, sizeof buf,
        "%s\"%s\":{\"spans\":%llu,\"total_s\":%.6f,\"self_s\":%.6f,"
        "\"count\":%llu}",
        out.size() > 1 ? "," : "", name.c_str(),
        static_cast<unsigned long long>(a.spans), a.total * 1e-9,
        a.self * 1e-9, static_cast<unsigned long long>(a.count));
    out.append(buf, static_cast<std::size_t>(len));
  }
  return out + "}";
}

}  // namespace plgbench
