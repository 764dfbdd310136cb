#include "trace.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {

using parhop::util::Json;

Tracer::Tracer(bool enabled)
    : enabled_(enabled), t0_(std::chrono::steady_clock::now()) {}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

std::int64_t Tracer::begin(const std::string& name, std::int64_t parent,
                           std::int64_t request) {
  if (!enabled_) return -1;
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, -1, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const double stop = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = stop;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (s.name == name && s.end_s >= 0) out.push_back(s.end_s - s.start_s);
  return out;
}

std::vector<SpanSummary> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's intervals per parent, merged so overlapping children (the
  // concurrent requests of one phase) are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0 && s.end_s >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                            s.end_s);
  std::map<std::string, SpanSummary> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_s < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double run_lo = 0;
    double run_hi = -1;
    for (const auto& [lo0, hi0] : iv) {
      const double lo = std::max(lo0, s.start_s);
      const double hi = std::min(hi0, s.end_s);
      if (hi <= lo) continue;
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    SpanSummary& sum = by_name[s.name];
    sum.name = s.name;
    ++sum.count;
    sum.total_s += s.end_s - s.start_s;
    sum.self_s += (s.end_s - s.start_s) - covered;
  }
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

Json Tracer::to_json() const {
  Json spans = Json::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& s : spans_) {
      Json j = Json::object();
      j.set("name", s.name);
      j.set("start_s", s.start_s);
      j.set("end_s", s.end_s);
      j.set("parent", s.parent);
      j.set("request", s.request);
      spans.push_back(std::move(j));
    }
  }
  Json summary = Json::array();
  for (const SpanSummary& s : summarize()) {
    Json j = Json::object();
    j.set("name", s.name);
    j.set("count", s.count);
    j.set("total_s", s.total_s);
    j.set("self_s", s.self_s);
    summary.push_back(std::move(j));
  }
  Json doc = Json::object();
  doc.set("spans", std::move(spans));
  doc.set("summary", std::move(summary));
  return doc;
}

}  // namespace perfbench
