// Spans the benchmark records around each call it makes into a library
// layer (graph, hopset, serialize, query, serve, sssp). Spans live in
// memory and are written out once, when the run ends. An untraced run keeps
// a disabled Tracer: begin()/end() then read no clock and store nothing, so
// the difference between a traced and an untraced run of the same workload
// and seed is the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// One recorded interval. `parent` is the id of the enclosing span (−1 at
/// top level); spans of one request share `request` (−1 when none).
struct SpanRecord {
  std::string name;
  double start_s = 0;
  double end_s = -1;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

/// Per-name totals. Self time is a span's duration minus the part of its
/// interval that its child spans cover.
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// Thread-safe span store; reader and writer threads record concurrently.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span and returns its id (−1 when disabled).
  std::int64_t begin(const std::string& name, std::int64_t parent = -1,
                     std::int64_t request = -1);
  void end(std::int64_t id);

  /// Durations (seconds) of every closed span named `name`, in start order.
  std::vector<double> durations(const std::string& name) const;
  /// Totals per span name, sorted by name.
  std::vector<SpanSummary> summarize() const;
  /// {"spans": [...], "summary": [...]} for the trace file.
  parhop::util::Json to_json() const;

 private:
  double now_s() const;

  bool enabled_;
  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_; id = index
};

/// RAII span: begin on construction, end on destruction.
class Span {
 public:
  Span(Tracer& t, const std::string& name, std::int64_t parent = -1,
       std::int64_t request = -1)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

}  // namespace perfbench
