#ifndef RICD_PERFBENCH_DETECT_H_
#define RICD_PERFBENCH_DETECT_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "graph/group.h"
#include "perfbench/bench.h"
#include "ricd/framework.h"
#include "table/click_table.h"

namespace ricd::perfbench {

/// The paper's default parameters (k1 = k2 = 10, alpha = 1, T_hot = 1000,
/// T_click = 12) with feedback off: one detection pass per run.
core::FrameworkOptions PaperOptions();

/// The offline job under test: core::ShardedRicd::Run at the default shard
/// count (1).
Result<core::FrameworkResult> RunDetection(const table::ClickTable& table);

/// One pass of the detection pipeline called stage by stage through each
/// module's public functions, in the order RicdFramework::Run calls them,
/// with the time spent in each stage.
struct StagedRun {
  std::vector<graph::Group> groups;
  core::RankedOutput ranked;
  double build_s = 0, core_s = 0, square_s = 0, components_s = 0,
         hot_flags_s = 0, screening_s = 0, identification_s = 0, total_s = 0;
  /// Live edges (both endpoints active) on entry to the first square
  /// pruning sweep, as a share of the graph's edges.
  double live_edge_share = 0;
  /// ricd.extraction.rounds / round_rechecks read around SquarePruning, and
  /// the vertices square pruning removed.
  uint64_t rounds = 0, rechecks = 0, removed = 0;
  /// engine.pool.task_run_seconds accrued during the pass ÷ (workers × wall).
  double engine_busy_share = 0;
};
Result<StagedRun> RunStaged(const table::ClickTable& table,
                            SpanRecorder* spans);

/// True when `groups` and `ranked` are exactly `reference`'s groups and
/// rankings (ids and risk doubles compared bit for bit).
bool SameOutput(const core::FrameworkResult& reference,
                const std::vector<graph::Group>& groups,
                const core::RankedOutput& ranked, std::string* why);

/// Traced detection layers over `table`: `reps` staged passes, each checked
/// against `reference`; reports each stage's median time, the pruning
/// counts, and trace.overhead_share against the untraced `run_seconds`.
void AddDetectionLayers(const table::ClickTable& table,
                        const core::FrameworkResult& reference,
                        const std::vector<double>& run_seconds, int reps,
                        SpanRecorder* spans, RunReport* report);

/// Detection quality against the injected labels, pooled over any number of
/// runs: precision is the share of flagged users that are attackers, recall
/// the share of attackers (among the users a run saw) that were flagged.
struct Quality {
  size_t flagged = 0;
  size_t true_flags = 0;
  size_t attackers = 0;
  size_t caught = 0;

  void Add(const std::unordered_set<table::UserId>& flagged_users,
           const std::unordered_set<table::UserId>& attacker_users,
           const std::unordered_set<table::UserId>& population);
  double precision() const;
  double recall() const;
};

}  // namespace ricd::perfbench

#endif  // RICD_PERFBENCH_DETECT_H_
