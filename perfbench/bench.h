#ifndef RICD_PERFBENCH_BENCH_H_
#define RICD_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/spans.h"

namespace ricd::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The time point `seconds` after `origin`.
inline Clock::time_point At(Clock::time_point origin, double seconds) {
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
}

inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Runs that measure over several tables materialize table k from the run
/// seed + k * kTableSeedStride (table 0 from the run seed itself).
inline constexpr uint64_t kTableSeedStride = 1000003;

/// A generator that starts a call this late has lost its schedule; the run
/// is reported invalid.
inline constexpr double kMaxLatenessS = 0.25;

/// Open-loop pacing: sleeps until `spin` before `when`, then spins, so a
/// generator starts each call within microseconds of its due time instead of
/// paying the kernel's wake-up delay (which, on a virtual machine, can reach
/// milliseconds for a thread that went idle).
void WaitUntil(Clock::time_point when, std::chrono::microseconds spin);

/// Sets the calling thread's timer slack to its minimum (Linux), for
/// generator threads that pace with WaitUntil.
void UseTightTimers();

/// Lowers the CPU priority (nice +10) of every thread of this process except
/// `keep` (Linux thread ids). Stream runs keep the load generators, which also
/// run the slate checks, at normal priority and move the service's
/// background threads (refresh, rebuild, engine workers) below them, as a
/// deployment would rank its request path above its refresh work; without
/// it the generators' own scheduling delays dominate the latency tail.
void LowerPriorityExcept(const std::vector<int>& keep);

/// Linux thread id of the calling thread.
int ThreadId();

/// Quantile with linear interpolation between order statistics (the
/// "inclusive" definition: q=0 is the minimum, q=1 the maximum). Empty input
/// gives 0.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MB (getrusage).
double PeakRssMb();

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` is filled by untraced runs,
/// `per_layer` by traced runs; `notes` are human-readable lines printed
/// before the result line.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  /// Records a failed correctness check; the run reports correct=false.
  void Fail(const std::string& why);
  void Note(const std::string& line) { notes.push_back(line); }
  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// The three workloads (README.md in this directory gives the rationale).
void RunOfflineBatch(const Args& args, SpanRecorder* spans, RunReport* report);
void RunStreamInsert(const Args& args, SpanRecorder* spans, RunReport* report);
void RunStreamWindow(const Args& args, SpanRecorder* spans, RunReport* report);

}  // namespace ricd::perfbench

#endif  // RICD_PERFBENCH_BENCH_H_
