// In-memory span recorder for the benchmark's traced run.
//
// Spans are taken in the benchmark's own code, around each public call a
// query makes into a module (sql, opt, plan, engine, host, serve); nothing
// inside the engine is instrumented. Spans are recorded from one thread,
// nest by call order, and are written out once when the run ends.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0;  ///< since the recorder was created
  double end_ms = 0;
  int parent = -1;      ///< index of the enclosing span, -1 at the root
  uint64_t query = 0;   ///< query id shared by every span of one request
};

/// Per-layer totals over every span of one name.
struct LayerTime {
  uint64_t count = 0;
  double total_ms = 0;
  /// Span time not covered by its child spans.
  double self_ms = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open span; returns its index, or
  /// -1 when disabled.
  int Begin(const std::string& name, uint64_t query);
  /// Closes the span `id` returned by Begin (no-op for -1); returns its
  /// duration in ms.
  double End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Totals and self time per span name.
  std::map<std::string, LayerTime> Layers() const;

  /// Share (0-100) of the time of spans named `root` that their direct
  /// children cover, over all such spans.
  double CoveragePct(const std::string& root) const;

  /// Writes every span as a JSON array; false when the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  double NowMs() const;
  /// Per span, the time its direct children cover.
  std::vector<double> ChildMs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, uint64_t query)
      : recorder_(recorder), id_(recorder->Begin(name, query)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench
