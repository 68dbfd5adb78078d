#include "perfbench/stream.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>

#include "perfbench/detect.h"
#include "ricd/incremental.h"
#include "scenario/registry.h"
#include "window/click_window.h"

namespace ricd::perfbench {
namespace {

template <typename T>
bool SameVerdicts(const std::vector<T>& served_ids,
                  const std::vector<double>& served_risks,
                  const std::map<T, double>& expected, const char* what,
                  std::string* why) {
  if (served_ids.size() != expected.size()) {
    *why = std::string(what) + " count " + std::to_string(served_ids.size()) +
           " vs offline " + std::to_string(expected.size());
    return false;
  }
  size_t i = 0;
  for (const auto& [id, risk] : expected) {
    if (served_ids[i] != id || served_risks[i] != risk) {
      *why = std::string(what) + " " + std::to_string(id) +
             " differs from offline (id or risk)";
      return false;
    }
    ++i;
  }
  return true;
}

}  // namespace

table::ClickTable RowsOf(const table::ClickTable& table,
                         const std::vector<scenario::ArrivalEvent>& events) {
  table::ClickTable rows;
  rows.Reserve(events.size());
  for (const scenario::ArrivalEvent& ev : events) rows.Append(table.row(ev.row));
  return rows;
}

Slates MakeSlates(const table::ClickTable& table, size_t count, uint64_t seed) {
  Slates slates;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5157u);
  std::uniform_int_distribution<size_t> row(0, table.num_rows() - 1);
  slates.users.reserve(count);
  slates.items.reserve(count * kSlateItems);
  for (size_t i = 0; i < count; ++i) {
    slates.users.push_back(table.user(row(rng)));
    for (int j = 0; j < kSlateItems; ++j) {
      slates.items.push_back(table.item(row(rng)));
    }
  }
  return slates;
}

bool RunStream(const StreamPlan& plan, SpanRecorder* spans, RunReport* report,
               StreamOutcome* out) {
  const table::ClickTable& table = plan.scenario->table;
  const table::ClickTable initial = RowsOf(table, plan.initial);

  // Set-up: Start (one full-graph bootstrap) on fresh services; keep the last.
  std::unique_ptr<serve::DetectionService> service;
  for (int i = 0; i < plan.start_repeats; ++i) {
    if (service != nullptr) {
      const Status stopped = service->Shutdown();
      if (!stopped.ok()) report->Fail("Shutdown: " + stopped.ToString());
    }
    service = std::make_unique<serve::DetectionService>(plan.options);
    ScopedSpan start(spans, "serve.start");
    const Status started = service->Start(initial);
    out->start_seconds.push_back(start.End());
    if (!started.ok()) {
      report->Fail("DetectionService::Start: " + started.ToString());
      return false;
    }
  }

  const size_t n = plan.replay.size();
  out->stream_seconds = static_cast<double>(n) / plan.click_rate;
  const size_t num_slates =
      static_cast<size_t>(out->stream_seconds * plan.slate_rate);
  const Slates slates = MakeSlates(table, num_slates, plan.seed);
  const bool trace = plan.trace;

  std::vector<double> due(n);
  for (size_t i = 0; i < n; ++i) due[i] = static_cast<double>(i) / plan.click_rate;
  std::vector<uint8_t> accepted_flag(n, 0);
  out->accepted.reserve(n);
  out->slate_us.resize(num_slates);
  if (trace) {
    out->ingest_call_us.reserve(n);
    out->pin_us.reserve(num_slates);
  }

  std::atomic<uint64_t> accepted_count{0};
  std::atomic<uint64_t> seen_applied{0};  // newest stats.applied the watcher saw
  std::atomic<int> generator_tids[3] = {0, 0, 0};
  std::atomic<bool> watching{true};
  const uint64_t start_epoch = service->Verdicts()->epoch;
  for (const table::UserId u : service->Verdicts()->flagged_users) {
    out->ever_flagged.insert(u);
  }
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(50);
  serve::DetectionService& svc = *service;

  ScopedSpan stream_span(spans, "serve.stream");
  std::thread clicks([&] {
    generator_tids[0].store(ThreadId());
    UseTightTimers();
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point when = At(origin, due[i]);
      WaitUntil(when, std::chrono::microseconds(0));
      const Clock::time_point begin = Clock::now();
      out->max_click_lateness_s = std::max(
          out->max_click_lateness_s,
          std::chrono::duration<double>(begin - when).count());
      const scenario::ArrivalEvent& ev = plan.replay[i];
      const Status pushed = svc.IngestClickAt(table.row(ev.row), ev.ts);
      if (trace) out->ingest_call_us.push_back(Micros(begin, Clock::now()));
      if (pushed.ok()) {
        accepted_flag[i] = 1;
        out->accepted.push_back(static_cast<uint32_t>(i));
        accepted_count.fetch_add(1, std::memory_order_release);
      } else {
        ++out->clicks_refused;  // counted as a failure, never retried
      }
    }
  });
  std::thread slate_thread([&] {
    generator_tids[1].store(ThreadId());
    UseTightTimers();
    uint64_t intercepted = 0;
    for (size_t s = 0; s < num_slates; ++s) {
      const Clock::time_point when =
          At(origin, static_cast<double>(s) / plan.slate_rate);
      WaitUntil(when, kSlateSpin);
      const Clock::time_point begin = Clock::now();
      out->max_slate_lateness_s = std::max(
          out->max_slate_lateness_s,
          std::chrono::duration<double>(begin - when).count());
      intercepted += CheckSlate(svc, slates, s, trace ? &out->pin_us : nullptr);
      out->slate_us[s] = Micros(when, Clock::now());
    }
    out->slate_hits = intercepted;
  });
  std::thread watcher([&] {
    generator_tids[2].store(ThreadId());
    uint64_t last_epoch = start_epoch;
    uint64_t last_applied = 0;
    while (watching.load(std::memory_order_acquire)) {
      {
        const serve::VerdictStore::ReadRef ref = svc.Verdicts();
        if (ref->epoch != last_epoch) {
          last_epoch = ref->epoch;
          last_applied = ref->stats.applied;
          out->publishes.push_back({SecondsSince(origin), ref->epoch,
                                    ref->stats.applied, ref->stats.rebuilds});
          for (const table::UserId u : ref->flagged_users) {
            out->ever_flagged.insert(u);
          }
          seen_applied.store(last_applied, std::memory_order_release);
        }
      }
      const uint64_t accepted = accepted_count.load(std::memory_order_acquire);
      if (accepted > last_applied) {
        out->queue_depth_max =
            std::max(out->queue_depth_max, accepted - last_applied);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<int> keep;
  while (keep.size() < 3) {
    keep.clear();
    for (const auto& tid : generator_tids) {
      if (tid.load() != 0) keep.push_back(tid.load());
    }
  }
  LowerPriorityExcept(keep);
  clicks.join();
  slate_thread.join();
  out->clicks_attempted = n;

  // Let the service catch up, then stop watching once the last accepted
  // click is covered by a publish the watcher has seen.
  Status drained = svc.Drain();
  if (drained.ok()) drained = svc.WaitForRebuild();
  if (!drained.ok()) report->Fail("Drain: " + drained.ToString());
  const uint64_t total_accepted = out->accepted.size();
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  while (seen_applied.load(std::memory_order_acquire) < total_accepted &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  watching.store(false, std::memory_order_release);
  watcher.join();
  stream_span.End();
  const double end_s = SecondsSince(origin);
  if (!out->publishes.empty()) {
    out->rebuilds_at_end = out->publishes.back().rebuilds;
  }

  // Freshness: accepted click k (push order) is fresh at the first publish
  // whose applied count exceeds k. A refused click never becomes fresh; it
  // gets the time from its due time to the end of the run.
  out->freshness_s.reserve(n);
  size_t k = 0;
  size_t p = 0;
  for (size_t i = 0; i < n; ++i) {
    if (accepted_flag[i] == 0) {
      out->freshness_s.push_back(end_s - due[i]);
      continue;
    }
    while (p < out->publishes.size() && out->publishes[p].applied < k + 1) ++p;
    if (p == out->publishes.size()) {
      report->Fail("accepted click never covered by a publish");
      out->freshness_s.push_back(end_s - due[i]);
    } else {
      out->freshness_s.push_back(out->publishes[p].t - due[i]);
    }
    ++k;
  }

  if (out->max_click_lateness_s > kMaxLatenessS ||
      out->max_slate_lateness_s > kMaxLatenessS) {
    report->Fail("generator lagged its schedule (click " +
                 std::to_string(out->max_click_lateness_s) + " s, slate " +
                 std::to_string(out->max_slate_lateness_s) + " s late)");
  }

  // Windowed ≡ offline, checked from outside: a mirror window fed the same
  // rows in the same order retains the same rows as the service's window,
  // and after a forced rebuild the service's verdicts equal an offline run
  // over them.
  window::ClickWindow mirror(plan.options.window);
  {
    ScopedSpan append(spans, "window.append");
    auto add = [&](const table::ClickRecord& record, uint64_t ts) {
      if (trace) {
        const Clock::time_point begin = Clock::now();
        mirror.Append(record, ts);
        out->append_us.push_back(Micros(begin, Clock::now()));
      } else {
        mirror.Append(record, ts);
      }
    };
    for (size_t i = 0; i < initial.num_rows(); ++i) add(initial.row(i), 0);
    for (const uint32_t i : out->accepted) {
      const scenario::ArrivalEvent& ev = plan.replay[i];
      add(table.row(ev.row), ev.ts);
    }
  }
  const window::WindowStats ws = mirror.stats();
  const window::WindowStats served_ws = svc.window_stats();
  out->sealed_segments = ws.sealed_segments;
  out->evicted_rows = ws.evicted_rows;
  if (ws.appended_rows != served_ws.appended_rows ||
      ws.retained_rows != served_ws.retained_rows ||
      ws.evicted_rows != served_ws.evicted_rows) {
    report->Fail("mirror window accounting differs from the service's");
  }
  if (ws.appended_rows != ws.retained_rows + ws.evicted_rows) {
    report->Fail("window: appended != retained + evicted");
  }
  const window::WindowOptions& wo = plan.options.window;
  if (wo.max_clicks > 0 && ws.retained_rows > wo.max_clicks + wo.segment_clicks) {
    report->Fail("window: retained rows exceed max_clicks + segment_clicks");
  }
  table::ClickTable retained;
  {
    ScopedSpan materialize(spans, "window.materialize_retained");
    retained = mirror.MaterializeRetained();
  }

  const Status rebuilt = svc.ForceRebuild();
  if (!rebuilt.ok()) report->Fail("ForceRebuild: " + rebuilt.ToString());
  Result<core::FrameworkResult> reference = RunDetection(retained);
  ++report->attempted;
  if (!reference.ok()) {
    ++report->failed;
    report->Fail("ShardedRicd::Run: " + reference.status().ToString());
    return false;
  }
  std::map<table::UserId, double> users;
  std::map<table::ItemId, double> items;
  for (const auto& u : reference->ranked.users) users[u.external_id] = u.risk;
  for (const auto& v : reference->ranked.items) items[v.external_id] = v.risk;
  {
    const serve::VerdictStore::ReadRef served = svc.Verdicts();
    std::string why;
    if (!SameVerdicts(served->flagged_users, served->user_risks, users,
                      "flagged user", &why) ||
        !SameVerdicts(served->flagged_items, served->item_risks, items,
                      "flagged item", &why)) {
      report->Fail("windowed != offline after Drain+ForceRebuild: " + why);
    }
  }
  const Status stopped = svc.Shutdown();
  if (!stopped.ok()) report->Fail("Shutdown: " + stopped.ToString());

  for (size_t i = 0; i < initial.num_rows(); ++i) {
    out->population.insert(initial.user(i));
  }
  for (const uint32_t i : out->accepted) {
    out->population.insert(table.user(plan.replay[i].row));
  }
  report->attempted += n + num_slates;
  report->failed += out->clicks_refused;

  char line[256];
  std::snprintf(line, sizeof(line),
                "stream: %zu clicks at %.0f/s (%llu refused), %zu slates at "
                "%.0f/s (%llu verdict hits), %zu publishes, %llu rebuilds; "
                "generator max lateness click %.3f ms, slate %.3f ms",
                n, plan.click_rate,
                static_cast<unsigned long long>(out->clicks_refused),
                num_slates, plan.slate_rate,
                static_cast<unsigned long long>(out->slate_hits),
                out->publishes.size(),
                static_cast<unsigned long long>(out->rebuilds_at_end),
                out->max_click_lateness_s * 1e3,
                out->max_slate_lateness_s * 1e3);
  report->Note(line);
  return true;
}

void AddStreamLayers(const StreamPlan& plan, const StreamOutcome& outcome,
                     SpanRecorder* spans, RunReport* report) {
  const table::ClickTable& table = plan.scenario->table;
  // Replay the refresh thread's work: bootstrap on the initial rows, then
  // Ingest each batch the watcher saw published, and re-bootstrap from the
  // window's retained rows wherever a publish showed a rebuild.
  std::vector<double> bootstrap_s, ingest_s, region_share;
  window::ClickWindow window(plan.options.window);
  const table::ClickTable initial = RowsOf(table, plan.initial);
  for (size_t i = 0; i < initial.num_rows(); ++i) window.Append(initial.row(i), 0);
  auto detector = std::make_unique<core::IncrementalRicd>(PaperOptions());
  {
    ScopedSpan boot(spans, "ricd.incremental.bootstrap");
    const Status s = detector->Bootstrap(initial);
    bootstrap_s.push_back(boot.End());
    if (!s.ok()) {
      report->Fail("IncrementalRicd::Bootstrap: " + s.ToString());
      return;
    }
  }
  uint64_t applied = 0;
  uint64_t rebuilds = outcome.publishes.empty() ? 0 : 1;
  for (const PublishSeen& pub : outcome.publishes) {
    if (pub.applied > applied) {
      table::ClickTable batch;
      const uint64_t end = std::min<uint64_t>(pub.applied, outcome.accepted.size());
      for (uint64_t k = applied; k < end; ++k) {
        const scenario::ArrivalEvent& ev = plan.replay[outcome.accepted[k]];
        batch.Append(table.row(ev.row));
        window.Append(table.row(ev.row), ev.ts);
      }
      applied = end;
      ScopedSpan ingest(spans, "ricd.incremental.ingest");
      Result<core::IncrementalUpdate> update = detector->Ingest(batch);
      ingest_s.push_back(ingest.End());
      if (!update.ok()) {
        report->Fail("IncrementalRicd::Ingest: " + update.status().ToString());
        return;
      }
      if (detector->num_edges() > 0) {
        region_share.push_back(static_cast<double>(update->region_edges) /
                               static_cast<double>(detector->num_edges()));
      }
    }
    if (pub.rebuilds > rebuilds) {
      rebuilds = pub.rebuilds;
      auto fresh = std::make_unique<core::IncrementalRicd>(PaperOptions());
      ScopedSpan boot(spans, "ricd.incremental.bootstrap");
      const Status s = fresh->Bootstrap(window.MaterializeRetained());
      bootstrap_s.push_back(boot.End());
      if (!s.ok()) {
        report->Fail("IncrementalRicd::Bootstrap: " + s.ToString());
        return;
      }
      detector = std::move(fresh);
    }
  }
  double ingest_total = 0;
  for (const double s : ingest_s) ingest_total += s;

  double batch_rows = 0;
  if (!outcome.publishes.empty()) {
    batch_rows = static_cast<double>(outcome.publishes.back().applied) /
                 static_cast<double>(outcome.publishes.size());
  }
  report->Layer("serve.ingest_call_us", Median(outcome.ingest_call_us), "us");
  report->Layer("serve.publishes", static_cast<double>(outcome.publishes.size()),
                "count");
  report->Layer("serve.batch_rows", batch_rows, "count");
  report->Layer("serve.queue_depth_max",
                static_cast<double>(outcome.queue_depth_max), "count");
  report->Layer("serve.rebuilds", static_cast<double>(outcome.rebuilds_at_end),
                "count");
  report->Layer("serve.verdict_pin_us", Median(outcome.pin_us), "us");
  report->Layer("ricd.incremental.ingest_s", Median(ingest_s), "s");
  report->Layer("ricd.incremental.region_share", Mean(region_share), "ratio");
  report->Layer("ricd.incremental.busy_share",
                outcome.stream_seconds > 0 ? ingest_total / outcome.stream_seconds
                                           : 0.0,
                "ratio");
  report->Layer("ricd.incremental.bootstrap_s", Median(bootstrap_s), "s");
  report->Layer("window.append_us", Median(outcome.append_us), "us");
  report->Layer("window.sealed_segments",
                static_cast<double>(outcome.sealed_segments), "count");
  report->Layer("window.evicted_rows", static_cast<double>(outcome.evicted_rows),
                "count");
  char line[400];
  std::snprintf(line, sizeof(line),
                "incremental replay: %zu Ingest batches (%.3f s total), %zu "
                "bootstraps",
                ingest_s.size(), ingest_total, bootstrap_s.size());
  report->Note(line);
}

namespace {

/// Tables the stream workloads' detect_s is measured over.
constexpr uint64_t kDetectTables = 6;

struct StreamWorkload {
  const char* preset;
  gen::ScenarioScale scale;
  double start_share;  // share of the arrival schedule given to Start
  double click_rate;
  double slate_rate;
  size_t max_clicks;   // cap on replayed clicks (0 = no cap)
  window::WindowOptions window;
};

void RunStreamWorkload(const StreamWorkload& w, const Args& args,
                       SpanRecorder* spans, RunReport* report) {
  Result<scenario::ScenarioSpec> spec = scenario::FindScenario(w.preset);
  if (!spec.ok()) {
    report->Fail("scenario: " + spec.status().ToString());
    return;
  }
  spec->scale = w.scale;
  spec->seed = args.seed;

  // Set-up, part 1: materialize the scenario (kSetupRepeats times; median).
  std::vector<double> materialize_s;
  gen::Scenario scenario;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ScopedSpan gen_span(spans, "gen.materialize");
    Result<gen::Scenario> made = scenario::Materialize(*spec);
    materialize_s.push_back(gen_span.End());
    if (!made.ok()) {
      report->Fail("Materialize: " + made.status().ToString());
      return;
    }
    scenario = std::move(*made);
  }
  const table::ClickTable& table = scenario.table;
  const std::vector<scenario::ArrivalEvent> schedule =
      scenario::ArrivalSchedule(*spec, table);

  // Set-up, part 2 (inside RunStream): DetectionService::Start.
  StreamPlan plan;
  plan.scenario = &scenario;
  plan.seed = args.seed;
  plan.trace = args.trace;
  plan.click_rate = w.click_rate;
  plan.slate_rate = w.slate_rate;
  plan.options.framework = PaperOptions();
  plan.options.window = w.window;
  const size_t start_rows =
      static_cast<size_t>(static_cast<double>(schedule.size()) * w.start_share);
  size_t replay_rows =
      std::min<size_t>(schedule.size() - start_rows,
                       static_cast<size_t>(args.seconds * w.click_rate));
  if (w.max_clicks > 0) replay_rows = std::min(replay_rows, w.max_clicks);
  plan.initial.assign(schedule.begin(), schedule.begin() + start_rows);
  plan.replay.assign(schedule.begin() + start_rows,
                     schedule.begin() + start_rows + replay_rows);
  StreamOutcome outcome;
  if (!RunStream(plan, spans, report, &outcome)) return;

  // detect_s: the batch job over every row the stream carried (Start rows
  // plus accepted clicks) and over kDetectTables - 1 more tables of the
  // preset cut to the same row count; three passes each, mean over the
  // tables of each table's median. A small table's detection time swings
  // with its seed's hot-item layout; the extra tables average that out.
  table::ClickTable streamed = RowsOf(table, plan.initial);
  for (const uint32_t i : outcome.accepted) {
    streamed.Append(table.row(plan.replay[i].row));
  }
  std::vector<table::ClickTable> detect_tables;
  for (uint64_t k = 1; k < kDetectTables; ++k) {
    scenario::ScenarioSpec other = *spec;
    other.seed = args.seed + k * kTableSeedStride;
    Result<gen::Scenario> made = scenario::Materialize(other);
    if (!made.ok()) {
      report->Fail("Materialize: " + made.status().ToString());
      return;
    }
    std::vector<scenario::ArrivalEvent> order =
        scenario::ArrivalSchedule(other, made->table);
    order.resize(std::min(order.size(), streamed.num_rows()));
    detect_tables.push_back(RowsOf(made->table, order));
  }
  double detect_mean = 0;
  std::vector<double> streamed_s;
  core::FrameworkResult batch_reference;
  for (uint64_t k = 0; k < kDetectTables; ++k) {
    const table::ClickTable& rows = k == 0 ? streamed : detect_tables[k - 1];
    std::vector<double> passes;
    for (int i = 0; i < 3; ++i) {
      ScopedSpan detect(spans, "detect.run");
      Result<core::FrameworkResult> batch = RunDetection(rows);
      passes.push_back(detect.End());
      ++report->attempted;
      if (!batch.ok()) {
        ++report->failed;
        report->Fail("ShardedRicd::Run: " + batch.status().ToString());
        return;
      }
      if (k == 0 && i == 0) batch_reference = std::move(*batch);
    }
    if (k == 0) streamed_s = passes;
    detect_mean += Median(passes) / static_cast<double>(kDetectTables);
  }

  // Quality of every verdict the service published during the stream,
  // against the injected labels of the users the stream carried.
  Quality quality;
  quality.Add(outcome.ever_flagged, scenario.labels.abnormal_users,
              outcome.population);

  if (args.trace) {
    report->Layer("gen.materialize_s", Median(materialize_s), "s");
    report->Layer("quality.precision", quality.precision(), "ratio");
    report->Layer("quality.recall", quality.recall(), "ratio");
    AddDetectionLayers(streamed, batch_reference, streamed_s, 3, spans, report);
    AddStreamLayers(plan, outcome, spans, report);
    return;
  }

  report->EndToEnd("setup_s",
                   Median(materialize_s) + Median(outcome.start_seconds), "s");
  report->EndToEnd("detect_s", detect_mean, "s");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report->EndToEnd("freshness_p50_s", Quantile(outcome.freshness_s, 0.5), "s");
  report->EndToEnd("freshness_p90_s", Quantile(outcome.freshness_s, 0.9), "s");
  report->EndToEnd("slate_p50_us", Quantile(outcome.slate_us, 0.5), "us");
  char line[400];
  std::snprintf(line, sizeof(line),
                "ingest_failed_ratio %.6f (%llu of %llu clicks refused); "
                "freshness samples %zu publishes; slate samples %zu, p90 "
                "%.1f us, p99 %.1f us; %zu users flagged during the stream: "
                "precision %.4f, recall %.4f of %zu streamed attackers",
                outcome.clicks_attempted == 0
                    ? 0.0
                    : static_cast<double>(outcome.clicks_refused) /
                          static_cast<double>(outcome.clicks_attempted),
                static_cast<unsigned long long>(outcome.clicks_refused),
                static_cast<unsigned long long>(outcome.clicks_attempted),
                outcome.publishes.size(), outcome.slate_us.size(),
                Quantile(outcome.slate_us, 0.9),
                Quantile(outcome.slate_us, 0.99), quality.flagged,
                quality.precision(), quality.recall(), quality.attackers);
  report->Note(line);
}

}  // namespace

void RunStreamInsert(const Args& args, SpanRecorder* spans, RunReport* report) {
  StreamWorkload w;
  w.preset = "baseline";
  w.scale = gen::ScenarioScale::kSmall;
  w.start_share = 0.5;
  w.click_rate = 2000;
  w.slate_rate = 200;
  w.max_clicks = 0;
  w.window = window::WindowOptions();  // unbounded
  RunStreamWorkload(w, args, spans, report);
}

void RunStreamWindow(const Args& args, SpanRecorder* spans, RunReport* report) {
  StreamWorkload w;
  w.preset = "regime_shift";
  w.scale = gen::ScenarioScale::kSmall;
  w.start_share = 0.25;
  w.click_rate = 4000;
  w.slate_rate = 2000;
  w.max_clicks = 60000;
  w.window.max_clicks = 20000;
  w.window.segment_clicks = 512;
  RunStreamWorkload(w, args, spans, report);
}

}  // namespace ricd::perfbench
