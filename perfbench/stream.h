#ifndef RICD_PERFBENCH_STREAM_H_
#define RICD_PERFBENCH_STREAM_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "gen/scenario.h"
#include "perfbench/bench.h"
#include "scenario/materialize.h"
#include "serve/detection_service.h"
#include "table/click_table.h"

namespace ricd::perfbench {

/// Set-up steps (Materialize, Start) are timed this many times per run and
/// reported as a median.
inline constexpr int kSetupRepeats = 5;

/// One open-loop replay through serve::DetectionService: Start on
/// `initial`, then `replay` pushed through IngestClickAt at `click_rate`
/// while slate checks run at `slate_rate` and a watcher records publishes.
struct StreamPlan {
  const gen::Scenario* scenario = nullptr;
  std::vector<scenario::ArrivalEvent> initial;
  std::vector<scenario::ArrivalEvent> replay;
  double click_rate = 2000;
  double slate_rate = 200;
  serve::ServeOptions options;
  /// Start is timed on this many fresh services (the last one is used).
  int start_repeats = kSetupRepeats;
  uint64_t seed = 42;
  bool trace = false;
};

/// A verdict generation the watcher saw: when, and how many accepted clicks
/// it covers (ServeStats.applied).
struct PublishSeen {
  double t = 0;  // seconds since the schedule origin
  uint64_t epoch = 0;
  uint64_t applied = 0;
  uint64_t rebuilds = 0;
};

struct StreamOutcome {
  std::vector<double> start_seconds;
  double stream_seconds = 0;  // length of the click schedule
  uint64_t clicks_attempted = 0;
  uint64_t clicks_refused = 0;
  std::vector<uint32_t> accepted;  // indices into plan.replay, in push order
  std::vector<PublishSeen> publishes;  // after Start, up to the drained state
  std::vector<double> freshness_s;     // one per attempted click
  std::vector<double> slate_us;        // one per slate, from its due time
  uint64_t slate_hits = 0;             // verdict checks that intercepted
  double max_click_lateness_s = 0;
  double max_slate_lateness_s = 0;
  std::vector<double> ingest_call_us;  // traced runs only
  std::vector<double> pin_us;          // traced runs only
  uint64_t queue_depth_max = 0;
  uint64_t rebuilds_at_end = 0;  // ServeStats.rebuilds before ForceRebuild
  std::unordered_set<table::UserId> ever_flagged;
  std::unordered_set<table::UserId> population;  // users in streamed rows
  std::vector<double> append_us;      // mirror Append, traced runs only
  uint64_t sealed_segments = 0;
  uint64_t evicted_rows = 0;
};

/// Runs the plan and every stream correctness check (failures go to
/// `report`). Returns false when the run could not complete at all.
bool RunStream(const StreamPlan& plan, SpanRecorder* spans, RunReport* report,
               StreamOutcome* out);

/// Traced per-layer metrics of the serve, incremental and window layers,
/// from a completed stream (replays the watcher's batch cuts through
/// core::IncrementalRicd).
void AddStreamLayers(const StreamPlan& plan, const StreamOutcome& outcome,
                     SpanRecorder* spans, RunReport* report);

/// Candidate items per slate check.
inline constexpr int kSlateItems = 20;
/// How long before its due time the slate generator stops sleeping and
/// spins (clicks are not latency-timed and just sleep).
inline constexpr std::chrono::microseconds kSlateSpin{200};

/// Slate inputs drawn from the table's rows (so users and candidate items
/// follow click popularity), seeded from the run seed.
struct Slates {
  std::vector<table::UserId> users;
  std::vector<table::ItemId> items;  // kSlateItems per slate
};
Slates MakeSlates(const table::ClickTable& table, size_t count, uint64_t seed);

/// Slate check `s`: IsFlaggedUser(u), then IsFlaggedItem(v) ||
/// IsBlockedPair(u, v) for each candidate item; returns how many
/// intercepted. `Verdicts` is serve::DetectionService or any type with the
/// same three queries. With `pin_us`, the user query's time is recorded.
template <typename Verdicts>
uint64_t CheckSlate(const Verdicts& verdicts, const Slates& slates, size_t s,
                    std::vector<double>* pin_us) {
  const table::UserId u = slates.users[s];
  uint64_t hits = 0;
  if (pin_us != nullptr) {
    const Clock::time_point begin = Clock::now();
    hits += verdicts.IsFlaggedUser(u) ? 1 : 0;
    pin_us->push_back(Micros(begin, Clock::now()));
  } else {
    hits += verdicts.IsFlaggedUser(u) ? 1 : 0;
  }
  for (int j = 0; j < kSlateItems; ++j) {
    const table::ItemId v = slates.items[s * kSlateItems + j];
    hits += (verdicts.IsFlaggedItem(v) || verdicts.IsBlockedPair(u, v)) ? 1 : 0;
  }
  return hits;
}

/// Table of the rows an arrival list names.
table::ClickTable RowsOf(const table::ClickTable& table,
                         const std::vector<scenario::ArrivalEvent>& events);

}  // namespace ricd::perfbench

#endif  // RICD_PERFBENCH_STREAM_H_
