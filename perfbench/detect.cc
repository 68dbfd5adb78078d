#include "perfbench/detect.h"

#include <algorithm>
#include <cstdio>

#include "engine/worker_engine.h"
#include "graph/connected_components.h"
#include "graph/hot_items.h"
#include "graph/mutable_view.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "ricd/extension_biclique.h"
#include "ricd/graph_generator.h"
#include "ricd/identification.h"
#include "ricd/screening.h"
#include "ricd/sharded_framework.h"

namespace ricd::perfbench {
namespace {

using graph::Side;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

double TaskRunSeconds() {
  return obs::MetricsRegistry::Global()
      .GetHistogram(obs::metric_names::kEnginePoolTaskRunSeconds)
      ->Snapshot()
      .sum;
}

uint64_t LiveEdges(const graph::MutableView& view) {
  uint64_t live = 0;
  const uint32_t users = view.graph().num_users();
  for (graph::VertexId u = 0; u < users; ++u) {
    if (view.IsActive(Side::kUser, u)) live += view.ActiveDegree(Side::kUser, u);
  }
  return live;
}

}  // namespace

core::FrameworkOptions PaperOptions() {
  core::FrameworkOptions options;
  options.params = core::RicdParams();  // k1=k2=10, alpha=1, T_hot=1000, T_click=12
  options.screening = core::ScreeningMode::kFull;
  options.expectation = 0;  // no feedback re-runs
  return options;
}

Result<core::FrameworkResult> RunDetection(const table::ClickTable& table) {
  const core::ShardedRicd ricd(PaperOptions(), /*num_shards=*/1);
  return ricd.Run(table);
}

Result<StagedRun> RunStaged(const table::ClickTable& table,
                            SpanRecorder* spans) {
  const core::FrameworkOptions options = PaperOptions();
  core::RicdParams params = options.params;
  StagedRun run;
  const double task_seconds_before = TaskRunSeconds();
  ScopedSpan total(spans, "detect.pipeline");

  ScopedSpan build(spans, "graph.build");
  RICD_ASSIGN_OR_RETURN(graph::BipartiteGraph graph,
                        core::GenerateGraph(table));
  run.build_s = build.End();
  if (params.t_hot == 0) params.t_hot = graph::DeriveHotThreshold(graph, 0.8);

  const core::ExtensionBicliqueExtractor extractor(params);
  core::ExtractionStats stats;
  ScopedSpan view_span(spans, "graph.mutable_view");
  graph::MutableView view(graph);
  view_span.End();
  {
    ScopedSpan core(spans, "ricd.core_pruning");
    extractor.CorePruning(view, &stats);
    run.core_s += core.End();
  }
  for (uint32_t sweep = 0; sweep < params.square_pruning_sweeps; ++sweep) {
    const uint32_t before =
        view.NumActive(Side::kUser) + view.NumActive(Side::kItem);
    if (sweep == 0 && graph.num_edges() > 0) {
      run.live_edge_share = static_cast<double>(LiveEdges(view)) /
                            static_cast<double>(graph.num_edges());
    }
    const uint64_t rounds0 = CounterValue(obs::metric_names::kRicdExtractionRounds);
    const uint64_t rechecks0 =
        CounterValue(obs::metric_names::kRicdExtractionRoundRechecks);
    const uint32_t removed0 =
        stats.users_removed_square + stats.items_removed_square;
    {
      ScopedSpan square(spans, "ricd.square_pruning");
      extractor.SquarePruning(view, /*ordered=*/true, &stats);
      run.square_s += square.End();
    }
    run.rounds += CounterValue(obs::metric_names::kRicdExtractionRounds) - rounds0;
    run.rechecks +=
        CounterValue(obs::metric_names::kRicdExtractionRoundRechecks) - rechecks0;
    run.removed +=
        stats.users_removed_square + stats.items_removed_square - removed0;
    {
      ScopedSpan core(spans, "ricd.core_pruning");
      extractor.CorePruning(view, &stats);
      run.core_s += core.End();
    }
    const uint32_t after =
        view.NumActive(Side::kUser) + view.NumActive(Side::kItem);
    if (after == before) break;
  }

  {
    ScopedSpan components(spans, "graph.components");
    for (graph::Group& c : graph::ActiveConnectedComponents(view)) {
      if (c.users.size() < params.k1 || c.items.size() < params.k2) continue;
      if (params.max_group_users > 0 &&
          c.users.size() > params.max_group_users) {
        continue;
      }
      run.groups.push_back(std::move(c));
    }
    run.components_s = components.End();
  }

  std::vector<uint8_t> hot_flags;
  {
    ScopedSpan hot(spans, "graph.hot_flags");
    hot_flags = graph::ComputeHotFlags(graph, params.t_hot);
    run.hot_flags_s = hot.End();
  }
  {
    ScopedSpan screening(spans, "ricd.screening");
    const core::GroupScreener screener(graph, params, std::move(hot_flags));
    screener.Screen(run.groups, options.screening);
    run.screening_s = screening.End();
  }
  {
    ScopedSpan identification(spans, "ricd.identification");
    run.ranked = core::RankByRisk(graph, run.groups);
    run.identification_s = identification.End();
  }
  run.total_s = total.End();
  const double workers =
      static_cast<double>(engine::DefaultEngine().num_workers());
  if (run.total_s > 0) {
    run.engine_busy_share = (TaskRunSeconds() - task_seconds_before) /
                            (workers * run.total_s);
  }
  return run;
}

bool SameOutput(const core::FrameworkResult& reference,
                const std::vector<graph::Group>& groups,
                const core::RankedOutput& ranked, std::string* why) {
  const auto& want = reference.detection.groups;
  if (want.size() != groups.size()) {
    *why = "group count " + std::to_string(groups.size()) + " vs " +
           std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].users != groups[i].users || want[i].items != groups[i].items) {
      *why = "group " + std::to_string(i) + " differs";
      return false;
    }
  }
  const auto& users = reference.ranked.users;
  const auto& items = reference.ranked.items;
  if (users.size() != ranked.users.size() ||
      items.size() != ranked.items.size()) {
    *why = "ranking sizes differ";
    return false;
  }
  for (size_t i = 0; i < users.size(); ++i) {
    const core::RankedUser& a = users[i];
    const core::RankedUser& b = ranked.users[i];
    if (a.user != b.user || a.external_id != b.external_id || a.risk != b.risk) {
      *why = "ranked user " + std::to_string(i) + " differs";
      return false;
    }
  }
  for (size_t i = 0; i < items.size(); ++i) {
    const core::RankedItem& a = items[i];
    const core::RankedItem& b = ranked.items[i];
    if (a.item != b.item || a.external_id != b.external_id || a.risk != b.risk) {
      *why = "ranked item " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

void AddDetectionLayers(const table::ClickTable& table,
                        const core::FrameworkResult& reference,
                        const std::vector<double>& run_seconds, int reps,
                        SpanRecorder* spans, RunReport* report) {
  std::vector<double> build, hot, core, square, components, screening, ident,
      total, busy;
  StagedRun last;
  for (int i = 0; i < reps; ++i) {
    Result<StagedRun> staged = RunStaged(table, spans);
    ++report->attempted;
    if (!staged.ok()) {
      ++report->failed;
      report->Fail("staged pipeline: " + staged.status().ToString());
      return;
    }
    std::string why;
    if (!SameOutput(reference, staged->groups, staged->ranked, &why)) {
      report->Fail("staged pipeline differs from ShardedRicd::Run: " + why);
    }
    build.push_back(staged->build_s);
    hot.push_back(staged->hot_flags_s);
    core.push_back(staged->core_s);
    square.push_back(staged->square_s);
    components.push_back(staged->components_s);
    screening.push_back(staged->screening_s);
    ident.push_back(staged->identification_s);
    total.push_back(staged->total_s);
    busy.push_back(staged->engine_busy_share);
    last = std::move(*staged);
  }
  report->Layer("graph.build_s", Median(build), "s");
  report->Layer("graph.hot_flags_s", Median(hot), "s");
  report->Layer("ricd.core_pruning_s", Median(core), "s");
  report->Layer("ricd.square_pruning_s", Median(square), "s");
  report->Layer("ricd.square_pruning.live_edge_share", last.live_edge_share,
                "ratio");
  report->Layer("ricd.square_pruning.rounds", static_cast<double>(last.rounds),
                "count");
  report->Layer("ricd.square_pruning.rechecks",
                static_cast<double>(last.rechecks), "count");
  report->Layer("ricd.square_pruning.removed", static_cast<double>(last.removed),
                "count");
  report->Layer("graph.components_s", Median(components), "s");
  report->Layer("ricd.screening_s", Median(screening), "s");
  report->Layer("ricd.identification_s", Median(ident), "s");
  report->Layer("engine.busy_share", Median(busy), "ratio");
  const double untraced = Median(run_seconds);
  report->Layer("trace.overhead_share",
                untraced > 0 ? Median(total) / untraced - 1.0 : 0.0, "ratio");
  char line[160];
  std::snprintf(line, sizeof(line),
                "detect: staged pipeline %.4f s (traced) vs ShardedRicd::Run "
                "%.4f s (untraced), %d passes each, output bit-identical: %s",
                Median(total), untraced, reps, report->correct ? "yes" : "no");
  report->Note(line);
}

void Quality::Add(const std::unordered_set<table::UserId>& flagged_users,
                  const std::unordered_set<table::UserId>& attacker_users,
                  const std::unordered_set<table::UserId>& population) {
  flagged += flagged_users.size();
  for (const table::UserId u : flagged_users) true_flags += attacker_users.count(u);
  for (const table::UserId u : attacker_users) {
    if (population.count(u) == 0) continue;
    ++attackers;
    caught += flagged_users.count(u);
  }
}

double Quality::precision() const {
  return flagged == 0 ? 0.0
                      : static_cast<double>(true_flags) /
                            static_cast<double>(flagged);
}

double Quality::recall() const {
  return attackers == 0 ? 0.0
                        : static_cast<double>(caught) /
                              static_cast<double>(attackers);
}

}  // namespace ricd::perfbench
