#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/detect.h"
#include "perfbench/stream.h"
#include "scenario/materialize.h"
#include "scenario/registry.h"
#include "serve/verdict_store.h"

namespace ricd::perfbench {
namespace {

constexpr double kSlateRate = 2000;
/// Rows of the day held back and streamed through the serve path in the
/// traced run, so the serve/incremental/window layers are measured here too.
constexpr size_t kTraceTailRows = 4096;
/// Days (independent medium tables) per run: pooling over them keeps the
/// run's figures from hinging on one table's attack layout.
constexpr uint64_t kDays = 3;
/// Slate checks after each detection pass (about a fifth of the run).
constexpr double kSlateSecondsPerPass = 0.6;

/// The batch job's verdicts as the serve layer holds them: flagged users
/// and items with their risks, and the blocked (flagged user, flagged item)
/// click edges.
std::shared_ptr<const serve::VerdictSnapshot> SnapshotOf(
    const core::FrameworkResult& result, const table::ClickTable& table) {
  auto snap = std::make_shared<serve::VerdictSnapshot>();
  snap->epoch = 1;
  std::vector<std::pair<table::UserId, double>> users;
  for (const auto& u : result.ranked.users) users.emplace_back(u.external_id, u.risk);
  std::sort(users.begin(), users.end());
  for (const auto& [u, risk] : users) {
    snap->flagged_users.push_back(u);
    snap->user_risks.push_back(risk);
  }
  std::vector<std::pair<table::ItemId, double>> items;
  for (const auto& v : result.ranked.items) items.emplace_back(v.external_id, v.risk);
  std::sort(items.begin(), items.end());
  for (const auto& [v, risk] : items) {
    snap->flagged_items.push_back(v);
    snap->item_risks.push_back(risk);
  }
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (snap->FlaggedUser(table.user(i)) && snap->FlaggedItem(table.item(i))) {
      snap->blocked_pairs.emplace_back(table.user(i), table.item(i));
    }
  }
  std::sort(snap->blocked_pairs.begin(), snap->blocked_pairs.end());
  snap->blocked_pairs.erase(
      std::unique(snap->blocked_pairs.begin(), snap->blocked_pairs.end()),
      snap->blocked_pairs.end());
  return snap;
}

/// DetectionService's query API over a bare store: one pin per query.
struct StoreVerdicts {
  const serve::VerdictStore* store;
  bool IsFlaggedUser(table::UserId u) const {
    return store->Acquire()->FlaggedUser(u);
  }
  bool IsFlaggedItem(table::ItemId v) const {
    return store->Acquire()->FlaggedItem(v);
  }
  bool IsBlockedPair(table::UserId u, table::ItemId v) const {
    return store->Acquire()->BlockedPair(u, v);
  }
};

/// Open-loop slate checks against the published batch verdicts, each one
/// pin per verdict call like DetectionService's query API. Latency is timed
/// from each slate's due time.
std::vector<double> CheckSlates(const serve::VerdictStore& store,
                                const table::ClickTable& table, double seconds,
                                uint64_t seed, double* max_lateness_s,
                                uint64_t* hits) {
  const size_t count = static_cast<size_t>(seconds * kSlateRate);
  const Slates slates = MakeSlates(table, count, seed);
  const StoreVerdicts verdicts{&store};
  std::vector<double> latency_us(count);
  UseTightTimers();
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(5);
  for (size_t s = 0; s < count; ++s) {
    const Clock::time_point when =
        At(origin, static_cast<double>(s) / kSlateRate);
    WaitUntil(when, kSlateSpin);
    *max_lateness_s = std::max(
        *max_lateness_s,
        std::chrono::duration<double>(Clock::now() - when).count());
    *hits += CheckSlate(verdicts, slates, s, nullptr);
    latency_us[s] = Micros(when, Clock::now());
  }
  return latency_us;
}

}  // namespace

void RunOfflineBatch(const Args& args, SpanRecorder* spans, RunReport* report) {
  // Set-up: materialize the days' click tables, each twice (median of the
  // six timings).
  std::vector<scenario::ScenarioSpec> specs;
  std::vector<gen::Scenario> days;
  std::vector<double> materialize_s;
  for (uint64_t d = 0; d < kDays; ++d) {
    specs.push_back(scenario::BaselineSpec(gen::ScenarioScale::kMedium,
                                           args.seed + d * kTableSeedStride));
    for (int i = 0; i < 2; ++i) {
      ScopedSpan gen_span(spans, "gen.materialize");
      Result<gen::Scenario> made = scenario::Materialize(specs.back());
      materialize_s.push_back(gen_span.End());
      if (!made.ok()) {
        report->Fail("Materialize: " + made.status().ToString());
        return;
      }
      if (i == 0) days.push_back(std::move(*made));
    }
  }

  // Warm-up pass (engine threads, allocator) on the first day.
  {
    Result<core::FrameworkResult> warm = RunDetection(days[0].table);
    ++report->attempted;
    if (!warm.ok()) {
      ++report->failed;
      report->Fail("ShardedRicd::Run: " + warm.status().ToString());
      return;
    }
  }

  // Measured phase, for --seconds (two fifths of it when traced): passes
  // cycle over the days. Untraced, each pass is followed by slate checks
  // against that day's verdicts, published to a serve::VerdictStore, so
  // the query figures are sampled across the whole run. Each day's first
  // timed pass is the reference its later passes must reproduce.
  const double budget = args.seconds * (args.trace ? 0.4 : 1.0);
  std::vector<std::vector<double>> day_s(kDays);
  std::vector<core::FrameworkResult> reference(kDays);
  std::vector<std::unique_ptr<serve::VerdictStore>> stores(kDays);
  std::vector<double> slate_us;
  double max_lateness_s = 0;
  uint64_t slate_hits = 0;
  const Clock::time_point phase = Clock::now();
  for (uint64_t step = 0; step < kDays || SecondsSince(phase) < budget;
       ++step) {
    const uint64_t d = step % kDays;
    {
      ScopedSpan detect(spans, "detect.run");
      Result<core::FrameworkResult> run = RunDetection(days[d].table);
      day_s[d].push_back(detect.End());
      ++report->attempted;
      if (!run.ok()) {
        ++report->failed;
        report->Fail("ShardedRicd::Run: " + run.status().ToString());
        return;
      }
      std::string why;
      if (step < kDays) {
        reference[d] = std::move(*run);
      } else if (!SameOutput(reference[d], run->detection.groups, run->ranked,
                             &why)) {
        report->Fail("ShardedRicd::Run differs across passes: " + why);
      }
    }
    if (args.trace) continue;
    if (stores[d] == nullptr) {
      stores[d] = std::make_unique<serve::VerdictStore>();
      stores[d]->Publish(SnapshotOf(reference[d], days[d].table));
    }
    const std::vector<double> step_slates =
        CheckSlates(*stores[d], days[d].table, kSlateSecondsPerPass,
                    args.seed + step, &max_lateness_s, &slate_hits);
    slate_us.insert(slate_us.end(), step_slates.begin(), step_slates.end());
  }
  std::vector<double> all_s;
  for (const std::vector<double>& s : day_s) {
    all_s.insert(all_s.end(), s.begin(), s.end());
  }

  // Quality pooled over the days.
  Quality quality;
  for (uint64_t d = 0; d < kDays; ++d) {
    std::unordered_set<table::UserId> flagged;
    for (const auto& u : reference[d].ranked.users) flagged.insert(u.external_id);
    const std::unordered_set<table::UserId>& attackers =
        days[d].labels.abnormal_users;
    quality.Add(flagged, attackers, attackers);
  }

  if (args.trace) {
    const gen::Scenario& day = days[0];
    report->Layer("gen.materialize_s", Median(materialize_s), "s");
    report->Layer("quality.precision", quality.precision(), "ratio");
    report->Layer("quality.recall", quality.recall(), "ratio");
    AddDetectionLayers(day.table, reference[0], day_s[0], 3, spans, report);
    // Serve, incremental and window layers: the day's last rows arrive late
    // and stream through DetectionService after a Start on the rest.
    const std::vector<scenario::ArrivalEvent> schedule =
        scenario::ArrivalSchedule(specs[0], day.table);
    const size_t tail = std::min(kTraceTailRows, schedule.size() / 2);
    StreamPlan plan;
    plan.scenario = &day;
    plan.seed = args.seed;
    plan.trace = true;
    plan.click_rate = 2000;
    plan.slate_rate = 200;
    plan.start_repeats = 1;
    plan.options.framework = PaperOptions();
    plan.initial.assign(schedule.begin(), schedule.end() - tail);
    plan.replay.assign(schedule.end() - tail, schedule.end());
    StreamOutcome outcome;
    if (!RunStream(plan, spans, report, &outcome)) return;
    AddStreamLayers(plan, outcome, spans, report);
    return;
  }

  report->attempted += slate_us.size();
  if (max_lateness_s > kMaxLatenessS) {
    report->Fail("slate generator lagged its schedule by " +
                 std::to_string(max_lateness_s) + " s");
  }

  report->EndToEnd("setup_s", Median(materialize_s), "s");
  report->EndToEnd("detect_s", Median(all_s), "s");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  // Every click of a day is due when its job starts and covered when the
  // pass returns, so freshness is the pass time.
  report->EndToEnd("freshness_p50_s", Quantile(all_s, 0.5), "s");
  report->EndToEnd("freshness_p90_s", Quantile(all_s, 0.9), "s");
  report->EndToEnd("slate_p50_us", Quantile(slate_us, 0.5), "us");
  char line[320];
  std::snprintf(line, sizeof(line),
                "offline: %llu days of ~%zu rows, %zu timed passes (min %.4f, "
                "max %.4f s), %zu users flagged: precision %.4f, recall %.4f of %zu injected "
                "attackers; %zu "
                "slates at %.0f/s (%llu verdict hits), p90 %.1f us, p99 %.1f us, generator "
                "max lateness %.3f ms",
                static_cast<unsigned long long>(kDays), days[0].table.num_rows(),
                all_s.size(), *std::min_element(all_s.begin(), all_s.end()),
                *std::max_element(all_s.begin(), all_s.end()), quality.flagged,
                quality.precision(), quality.recall(), quality.attackers, slate_us.size(), kSlateRate,
                static_cast<unsigned long long>(slate_hits),
                Quantile(slate_us, 0.9), Quantile(slate_us, 0.99), max_lateness_s * 1e3);
  report->Note(line);
}

}  // namespace ricd::perfbench
