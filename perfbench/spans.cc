#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, uint64_t query) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.query = query;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  spans_.back().start_ms = NowMs();
  return id;
}

double SpanRecorder::End(int id) {
  if (id < 0) return 0;
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ms = NowMs();
  // Spans close in LIFO order; tolerate an out-of-order close by popping
  // everything opened after `id`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
  return s.end_ms - s.start_ms;
}

std::vector<double> SpanRecorder::ChildMs() const {
  // Children of one span run one after another on the recording thread, so
  // their durations add without overlap.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  return child_ms;
}

std::map<std::string, LayerTime> SpanRecorder::Layers() const {
  const std::vector<double> child_ms = ChildMs();
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_ms - spans_[i].start_ms;
    LayerTime& l = layers[spans_[i].name];
    ++l.count;
    l.total_ms += d;
    l.self_ms += std::max(0.0, d - child_ms[i]);
  }
  return layers;
}

double SpanRecorder::CoveragePct(const std::string& root) const {
  const std::vector<double> child_ms = ChildMs();
  double total = 0, covered = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != root) continue;
    const double d = spans_[i].end_ms - spans_[i].start_ms;
    total += d;
    covered += std::min(d, child_ms[i]);
  }
  return total > 0 ? 100.0 * covered / total : 0.0;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"parent\": %d, \"query\": %llu}%s\n",
                 i, s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                 static_cast<unsigned long long>(s.query),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
