#ifndef RICD_PERFBENCH_SPANS_H_
#define RICD_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ricd::perfbench {

/// In-memory span recorder for the traced benchmark run. Spans are opened
/// and closed around calls into the library's public functions, from the
/// benchmark's own code only; nothing inside src/ is instrumented. Each span
/// has a name, start, end (seconds since the recorder was created), the id
/// of the span that was open when it began (its parent), and the run id.
///
/// Single-threaded: spans are recorded only from the thread that drives the
/// run (the stream generator threads time their calls into plain vectors).
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id);

  /// Opens a span as a child of the innermost open span; returns its id.
  uint32_t Begin(const std::string& name);
  /// Closes span `id` (must be the innermost open span); returns its
  /// duration in seconds.
  double End(uint32_t id);

  struct SelfTime {
    std::string name;
    uint64_t count = 0;
    double total_s = 0.0;  // sum of durations
    double self_s = 0.0;   // sum of (duration - time covered by children)
  };
  /// Per-name totals; self time subtracts each span's direct children.
  std::vector<SelfTime> SelfTimes() const;

  /// Writes every span plus the self-time table as one JSON document.
  bool WriteJson(const std::string& path) const;

  const std::string& run_id() const { return run_id_; }

 private:
  struct Span {
    std::string name;
    uint32_t parent = 0;  // 0 = root (ids start at 1)
    double start_s = 0.0;
    double end_s = -1.0;
  };

  double Now() const;

  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;      // spans_[id - 1]
  std::vector<uint32_t> stack_;  // open span ids, innermost last
};

/// RAII span; a null recorder makes it a no-op (untraced runs). `seconds()`
/// is the span's duration once it has ended, and is measured whether or not
/// a recorder is attached.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early; returns its duration in seconds. Idempotent.
  double End();

 private:
  SpanRecorder* recorder_;
  uint32_t id_ = 0;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = -1.0;
};

}  // namespace ricd::perfbench

#endif  // RICD_PERFBENCH_SPANS_H_
