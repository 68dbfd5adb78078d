// ricd_perfbench: one workload run of the RICD benchmark.
//
//   ricd_perfbench --workload offline_batch|stream_insert|stream_window
//                  [--seed 42] [--seconds 20] [--trace 0|1] [--out-dir DIR]
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer metrics; traced runs also
// write their spans to DIR/spans-<workload>-<seed>.json. perfbench/run.py
// builds this binary and pins the engine's worker count per workload.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "engine/worker_engine.h"
#include "perfbench/bench.h"
#include "perfbench/spans.h"

namespace ricd::perfbench {

void WaitUntil(Clock::time_point when, std::chrono::microseconds spin) {
  std::this_thread::sleep_until(when - spin);
  while (Clock::now() < when) {
  }
}

void UseTightTimers() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

int ThreadId() { return static_cast<int>(syscall(SYS_gettid)); }

void LowerPriorityExcept(const std::vector<int>& keep) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid <= 0 || std::find(keep.begin(), keep.end(), tid) != keep.end()) {
      continue;
    }
    setpriority(PRIO_PROCESS, static_cast<id_t>(tid), 10);
  }
  closedir(dir);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunReport::Fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

namespace {

// The metric sets every run must report (BENCHMARK.json lists the same).
const char* const kEndToEnd[] = {"setup_s",         "detect_s",
                                 "peak_rss_mb",     "freshness_p50_s",
                                 "freshness_p90_s", "slate_p50_us"};
const char* const kPerLayer[] = {
    "gen.materialize_s",
    "quality.precision",
    "quality.recall",
    "graph.build_s",
    "graph.hot_flags_s",
    "ricd.core_pruning_s",
    "ricd.square_pruning_s",
    "ricd.square_pruning.live_edge_share",
    "ricd.square_pruning.rounds",
    "ricd.square_pruning.rechecks",
    "ricd.square_pruning.removed",
    "graph.components_s",
    "ricd.screening_s",
    "ricd.identification_s",
    "engine.busy_share",
    "trace.overhead_share",
    "serve.ingest_call_us",
    "serve.publishes",
    "serve.batch_rows",
    "serve.queue_depth_max",
    "serve.rebuilds",
    "serve.verdict_pin_us",
    "ricd.incremental.ingest_s",
    "ricd.incremental.region_share",
    "ricd.incremental.busy_share",
    "ricd.incremental.bootstrap_s",
    "window.append_us",
    "window.sealed_segments",
    "window.evicted_rows"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "ricd_perfbench: %s\nusage: ricd_perfbench --workload "
               "offline_batch|stream_insert|stream_window [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR]\n",
               why);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace
}  // namespace ricd::perfbench

int main(int argc, char** argv) {
  using namespace ricd::perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage(("missing value for " + flag).c_str());
    ++i;
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) return Usage("bad --seed");
      args.seed = n;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0) return Usage("bad --seconds");
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!ParseUint(value, &n) || n > 1) return Usage("bad --trace");
      args.trace = n == 1;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  void (*workload)(const Args&, SpanRecorder*, RunReport*) = nullptr;
  if (args.workload == "offline_batch") {
    workload = RunOfflineBatch;
  } else if (args.workload == "stream_insert") {
    workload = RunStreamInsert;
  } else if (args.workload == "stream_window") {
    workload = RunStreamWindow;
  } else {
    return Usage("unknown --workload");
  }

  const std::string run_id =
      args.workload + "-" + std::to_string(args.seed) + "-" +
      std::to_string(getpid()) + "-" +
      std::to_string(std::chrono::system_clock::now().time_since_epoch() /
                     std::chrono::milliseconds(1));
  SpanRecorder recorder(run_id);
  SpanRecorder* spans = args.trace ? &recorder : nullptr;
  RunReport report;
  const Clock::time_point started = Clock::now();
  {
    ScopedSpan root(spans, "run." + args.workload);
    workload(args, spans, &report);
  }

  // Every run reports exactly the declared metric set.
  std::set<std::string> want;
  if (args.trace) {
    for (const char* name : kPerLayer) want.insert(name);
  } else {
    for (const char* name : kEndToEnd) want.insert(name);
  }
  std::vector<Metric>& metrics =
      args.trace ? report.per_layer : report.end_to_end;
  std::set<std::string> have;
  for (const Metric& m : metrics) have.insert(m.name);
  if (report.correct && have != want) report.Fail("metric set incomplete");
  for (Metric& m : metrics) {
    if (std::isfinite(m.value)) continue;
    report.Fail(m.name + " is not finite");
    m.value = 0.0;  // keeps the result line valid JSON
  }

  std::printf("run %s: workload %s seed %llu trace %d engine workers %zu "
              "wall %.2f s\n",
              run_id.c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              ricd::engine::DefaultEngine().num_workers(),
              SecondsSince(started));
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-38s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    std::printf("self time by span (s): name count total self\n");
    for (const SpanRecorder::SelfTime& s : recorder.SelfTimes()) {
      std::printf("  %-34s %6llu %10.4f %10.4f\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_s, s.self_s);
    }
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (recorder.WriteJson(path)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      std::printf("could not write spans to %s\n", path.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(report.attempted, 1));
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char buf[160];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
