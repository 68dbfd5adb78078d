#include "perfbench/spans.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

namespace ricd::perfbench {

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

uint32_t SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.start_s = Now();
  spans_.push_back(std::move(span));
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  stack_.push_back(id);
  return id;
}

double SpanRecorder::End(uint32_t id) {
  Span& span = spans_[id - 1];
  span.end_s = Now();
  // Closing out of order would corrupt parent links; pop through `id`.
  while (!stack_.empty()) {
    const uint32_t top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
  return span.end_s - span.start_s;
}

std::vector<SpanRecorder::SelfTime> SpanRecorder::SelfTimes() const {
  // Children run nested and sequentially on the recording thread, so the
  // part of a span covered by its children is the sum of their durations.
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    if (span.end_s < 0) continue;
    child_time[span.parent] += span.end_s - span.start_s;
  }
  std::map<std::string, SelfTime> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_s < 0) continue;
    const double duration = span.end_s - span.start_s;
    SelfTime& entry = by_name[span.name];
    entry.name = span.name;
    ++entry.count;
    entry.total_s += duration;
    entry.self_s += duration - child_time[i + 1];
  }
  std::vector<SelfTime> out;
  out.reserve(by_name.size());
  for (auto& [name, entry] : by_name) out.push_back(std::move(entry));
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  out << "{\n  \"run_id\": \"" << run_id_ << "\",\n  \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"id\": %zu, \"parent\": %u, \"name\": \"%s\", "
                  "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                  i + 1, span.parent, span.name.c_str(), span.start_s,
                  span.end_s, i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"self_time\": [\n";
  const std::vector<SelfTime> self = SelfTimes();
  for (size_t i = 0; i < self.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"count\": %llu, \"total_s\": %.9f, "
                  "\"self_s\": %.9f}%s\n",
                  self[i].name.c_str(),
                  static_cast<unsigned long long>(self[i].count),
                  self[i].total_s, self[i].self_s,
                  i + 1 < self.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const std::string& name)
    : recorder_(recorder), start_(std::chrono::steady_clock::now()) {
  if (recorder_ != nullptr) id_ = recorder_->Begin(name);
}

double ScopedSpan::End() {
  if (seconds_ >= 0) return seconds_;
  seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
  if (recorder_ != nullptr) recorder_->End(id_);
  return seconds_;
}

}  // namespace ricd::perfbench
