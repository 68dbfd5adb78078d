// Differential tests for the deterministic parallel pruning phases: the
// round-based SquarePruning and frontier CorePruning must produce output
// bit-identical to the sequential reference schedule for every worker
// count, seed, and parameter shape; Extract, which square-prunes the core
// survivors compacted into their own CSR, must match the same hooks
// composed on the uncompacted source view. Also unit-tests the two
// scheduling building blocks (RoundScheduler, PerWorkerBuffers).

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "engine/worker_buffers.h"
#include "engine/worker_engine.h"
#include "graph/connected_components.h"
#include "graph/graph_builder.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "ricd/extension_biclique.h"
#include "ricd/identification.h"
#include "ricd/round_scheduler.h"

namespace ricd::core {
namespace {

using graph::Side;
using graph::VertexId;

/// A schedule that forces the parallel machinery on even for the small
/// graphs tests can afford: no sequential fallback, no frontier fallback,
/// and tiny rounds so one extraction runs many of them (plenty of chances
/// for a round to straddle a removal cascade).
PruneSchedule ForcedParallelSchedule() {
  PruneSchedule s;
  s.sequential_cutoff = 0;
  s.frontier_cutoff = 0;
  s.min_round = 4;
  s.initial_round = 8;
  s.max_round = 64;
  return s;
}

/// Messy workload: three overlapping planted bicliques of different sizes
/// plus background noise, so pruning has real cascades to resolve (square
/// removals re-triggering core removals across several sweeps). Rows are
/// consolidated into (user, item) order and dense ids follow first-seen
/// order, so the planted users and items take the lowest ids. With
/// `planted_last` their user ids sort after the noise users instead: the
/// core survivors are then no prefix of either side's ids, and a compaction
/// that maps them back wrongly cannot pass by accident.
table::ClickTable MakeWorkload(uint64_t seed, bool planted_last = false) {
  table::ClickTable t;
  Rng rng(seed);
  const table::UserId base = planted_last ? 20000 : 0;
  // Biclique A: 10x10 over users [100,110), items [1000,1010).
  for (uint32_t u = 0; u < 10; ++u) {
    for (uint32_t i = 0; i < 10; ++i) t.Append(base + 100 + u, 1000 + i, 7);
  }
  // Biclique B: 7x12, sharing three of A's items.
  for (uint32_t u = 0; u < 7; ++u) {
    for (uint32_t i = 0; i < 12; ++i) t.Append(base + 200 + u, 1007 + i, 7);
  }
  // Biclique C: 6x6 minus a diagonal (imperfect, needs alpha < 1).
  for (uint32_t u = 0; u < 6; ++u) {
    for (uint32_t i = 0; i < 6; ++i) {
      if (u == i) continue;
      t.Append(base + 300 + u, 2000 + i, 7);
    }
  }
  // Noise: 400 users clicking 2-5 random items from a 300-item pool.
  for (uint32_t u = 0; u < 400; ++u) {
    const uint32_t degree = 2 + static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t d = 0; d < degree; ++d) {
      t.Append(10000 + u, static_cast<table::ItemId>(rng.Uniform(300)), 1);
    }
  }
  t.ConsolidateDuplicates();
  return t;
}

RicdParams MakeParams(uint32_t k1, uint32_t k2, double alpha) {
  RicdParams p;
  p.k1 = k1;
  p.k2 = k2;
  p.alpha = alpha;
  p.t_hot = 1000000;
  return p;
}

void ExpectSameStats(const ExtractionStats& a, const ExtractionStats& b) {
  EXPECT_EQ(a.users_removed_core, b.users_removed_core);
  EXPECT_EQ(a.items_removed_core, b.items_removed_core);
  EXPECT_EQ(a.users_removed_square, b.users_removed_square);
  EXPECT_EQ(a.items_removed_square, b.items_removed_square);
  EXPECT_EQ(a.sweeps_run, b.sweeps_run);
}

void ExpectSameGroups(const std::vector<graph::Group>& a,
                      const std::vector<graph::Group>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].users, b[i].users) << "group " << i;
    EXPECT_EQ(a[i].items, b[i].items) << "group " << i;
  }
}

void ExpectSameRanking(const RankedOutput& a, const RankedOutput& b) {
  ASSERT_EQ(a.users.size(), b.users.size());
  for (size_t i = 0; i < a.users.size(); ++i) {
    EXPECT_EQ(a.users[i].external_id, b.users[i].external_id) << "rank " << i;
    EXPECT_EQ(a.users[i].risk, b.users[i].risk) << "rank " << i;
  }
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].external_id, b.items[i].external_id) << "rank " << i;
    EXPECT_EQ(a.items[i].risk, b.items[i].risk) << "rank " << i;
  }
}

/// The core differential: full extraction (groups + stats + business-facing
/// ranking) is bit-identical between the sequential reference and the
/// forced-parallel schedule at 1, 2, 4, and 8 workers.
class ParallelExtractionTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, std::tuple<uint32_t, uint32_t, double>>> {};

TEST_P(ParallelExtractionTest, BitIdenticalToSequential) {
  const auto [seed, shape] = GetParam();
  const auto [k1, k2, alpha] = shape;
  const auto g = graph::GraphBuilder::FromTable(MakeWorkload(seed)).value();
  const RicdParams params = MakeParams(k1, k2, alpha);

  // Reference: single worker takes the classic immediate-removal cascade
  // regardless of schedule (workers == 1 short-circuits the round path).
  engine::WorkerEngine reference_engine(1);
  ExtractionStats ref_stats;
  const auto ref =
      ExtensionBicliqueExtractor(params, &reference_engine).Extract(g, &ref_stats);
  ASSERT_TRUE(ref.ok());
  const RankedOutput ref_ranking = RankByRisk(g, *ref);

  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    engine::WorkerEngine engine(workers);
    ExtractionStats stats;
    const auto got = ExtensionBicliqueExtractor(params, &engine,
                                                ForcedParallelSchedule())
                         .Extract(g, &stats);
    ASSERT_TRUE(got.ok());
    ExpectSameGroups(*ref, *got);
    ExpectSameStats(ref_stats, stats);
    ExpectSameRanking(ref_ranking, RankByRisk(g, *got));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, ParallelExtractionTest,
    ::testing::Combine(
        ::testing::Values(1u, 7u, 42u),
        ::testing::Values(std::tuple<uint32_t, uint32_t, double>{6, 6, 1.0},
                          std::tuple<uint32_t, uint32_t, double>{5, 5, 0.8},
                          std::tuple<uint32_t, uint32_t, double>{3, 4, 0.6})));

/// The uncompacted reference for Extract: the public hooks composed on a
/// view of the source graph itself — CorePruning, then SquarePruning +
/// CorePruning sweeps until a sweep changes nothing, then
/// ActiveConnectedComponents under Extract's size filters. Sequential
/// (one worker). `live_after_core` receives the live edge count the sweeps
/// start from.
std::vector<graph::Group> UncompactedReference(const graph::BipartiteGraph& g,
                                               const RicdParams& params,
                                               ExtractionStats* stats,
                                               uint64_t* live_after_core) {
  engine::WorkerEngine engine(1);
  const ExtensionBicliqueExtractor extractor(params, &engine);
  graph::MutableView view(g);
  extractor.CorePruning(view, stats);
  *live_after_core = 0;
  for (VertexId u = 0; u < g.num_users(); ++u) {
    if (view.IsActive(Side::kUser, u)) {
      *live_after_core += view.ActiveDegree(Side::kUser, u);
    }
  }
  for (uint32_t sweep = 0; sweep < params.square_pruning_sweeps; ++sweep) {
    const uint32_t before =
        view.NumActive(Side::kUser) + view.NumActive(Side::kItem);
    extractor.SquarePruning(view, /*ordered=*/true, stats);
    extractor.CorePruning(view, stats);
    ++stats->sweeps_run;
    if (view.NumActive(Side::kUser) + view.NumActive(Side::kItem) == before) {
      break;
    }
  }
  std::vector<graph::Group> groups;
  for (graph::Group& c : graph::ActiveConnectedComponents(view)) {
    if (c.users.size() < params.k1 || c.items.size() < params.k2) continue;
    if (params.max_group_users > 0 && c.users.size() > params.max_group_users) {
      continue;
    }
    groups.push_back(std::move(c));
  }
  return groups;
}

uint64_t SquareInputEdges() {
  return obs::MetricsRegistry::Global()
      .GetCounter(obs::metric_names::kRicdExtractionSquareInputEdges)
      ->Value();
}

/// Extract at 1, 2 and 4 workers (forced-parallel schedule) against the
/// uncompacted reference: groups and every ExtractionStats field
/// bit-identical, and square pruning fed exactly the live edges core
/// pruning left. Returns the reference groups for shape assertions.
std::vector<graph::Group> ExpectCompactionMatchesReference(
    const graph::BipartiteGraph& g, const RicdParams& params) {
  ExtractionStats ref_stats;
  uint64_t live_after_core = 0;
  const std::vector<graph::Group> ref =
      UncompactedReference(g, params, &ref_stats, &live_after_core);
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    engine::WorkerEngine engine(workers);
    ExtractionStats stats;
    const uint64_t edges_before = SquareInputEdges();
    const auto got =
        ExtensionBicliqueExtractor(params, &engine, ForcedParallelSchedule())
            .Extract(g, &stats);
    EXPECT_EQ(SquareInputEdges() - edges_before, live_after_core);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok()) continue;
    ExpectSameGroups(ref, *got);
    ExpectSameStats(ref_stats, stats);
  }
  return ref;
}

class CompactionDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, std::tuple<uint32_t, uint32_t, double, uint32_t>>> {};

TEST_P(CompactionDifferentialTest, ExtractMatchesUncompactedHooks) {
  const auto [seed, shape] = GetParam();
  const auto [k1, k2, alpha, max_group_users] = shape;
  RicdParams params = MakeParams(k1, k2, alpha);
  params.max_group_users = max_group_users;
  for (const bool planted_last : {false, true}) {
    SCOPED_TRACE(testing::Message() << "planted_last=" << planted_last);
    const auto g =
        graph::GraphBuilder::FromTable(MakeWorkload(seed, planted_last)).value();
    ExpectCompactionMatchesReference(g, params);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, CompactionDifferentialTest,
    ::testing::Combine(
        ::testing::Values(1u, 7u, 42u),
        ::testing::Values(
            std::tuple<uint32_t, uint32_t, double, uint32_t>{6, 6, 1.0, 0},
            std::tuple<uint32_t, uint32_t, double, uint32_t>{5, 5, 0.8, 0},
            std::tuple<uint32_t, uint32_t, double, uint32_t>{3, 4, 0.6, 0},
            // Biclique A (10 users) exceeds the cap and is dropped.
            std::tuple<uint32_t, uint32_t, double, uint32_t>{3, 4, 0.6, 8})));

/// Appends a users x items biclique at the given external id bases.
void AppendBiclique(table::ClickTable* t, table::UserId user_base,
                    table::ItemId item_base, uint32_t users, uint32_t items) {
  for (uint32_t u = 0; u < users; ++u) {
    for (uint32_t i = 0; i < items; ++i) {
      t->Append(user_base + u, item_base + i, 3);
    }
  }
}

/// Core pruning removes nothing: Extract square-prunes the source graph
/// itself. Square pruning still has work: in the circulant every user and
/// item has degree 3, but no two users share 3 items.
TEST(CompactionDifferentialTest, CoreRemovesNothing) {
  table::ClickTable t;
  AppendBiclique(&t, 100, 1000, 5, 5);
  for (uint32_t u = 0; u < 12; ++u) {
    for (uint32_t i = 0; i < 3; ++i) t.Append(200 + u, 2000 + (u + i) % 12, 3);
  }
  t.ConsolidateDuplicates();
  const auto g = graph::GraphBuilder::FromTable(t).value();
  const RicdParams params = MakeParams(3, 3, 1.0);
  ExtractionStats stats;
  graph::MutableView view(g);
  engine::WorkerEngine engine(1);
  ExtensionBicliqueExtractor(params, &engine).CorePruning(view, &stats);
  ASSERT_EQ(stats.users_removed_core + stats.items_removed_core, 0u);
  ASSERT_EQ(ExpectCompactionMatchesReference(g, params).size(), 1u);
  ASSERT_TRUE(ExtensionBicliqueExtractor(params, &engine).Extract(g, &stats).ok());
  EXPECT_EQ(stats.users_removed_square, 12u);
}

/// Core pruning removes everything: the compact graph is empty, one vacuous
/// sweep still runs, and no group comes out.
TEST(CompactionDifferentialTest, CoreRemovesEverything) {
  const auto g = graph::GraphBuilder::FromTable(MakeWorkload(7)).value();
  const RicdParams params = MakeParams(40, 40, 1.0);
  const auto groups = ExpectCompactionMatchesReference(g, params);
  EXPECT_TRUE(groups.empty());
}

/// One survivor component against many: the many-component graph checks
/// that emission order (ascending minimum user) survives the compaction.
TEST(CompactionDifferentialTest, OneComponentAndMany) {
  const RicdParams params = MakeParams(6, 6, 1.0);
  table::ClickTable one = MakeWorkload(11);
  AppendBiclique(&one, 500, 3000, 8, 8);
  AppendBiclique(&one, 600, 3004, 8, 8);  // overlaps: still one component
  one.ConsolidateDuplicates();
  // Interleave four disjoint bicliques' user ids so ascending-minimum-user
  // emission differs from insertion order.
  table::ClickTable many = MakeWorkload(11);
  AppendBiclique(&many, 900, 4000, 7, 8);
  AppendBiclique(&many, 700, 5000, 9, 7);
  AppendBiclique(&many, 800, 6000, 8, 9);
  AppendBiclique(&many, 600, 7000, 7, 7);
  many.ConsolidateDuplicates();

  size_t one_groups = 0;
  size_t many_groups = 0;
  {
    SCOPED_TRACE("one component");
    const auto g = graph::GraphBuilder::FromTable(one).value();
    one_groups = ExpectCompactionMatchesReference(g, params).size();
  }
  {
    SCOPED_TRACE("many components");
    const auto g = graph::GraphBuilder::FromTable(many).value();
    many_groups = ExpectCompactionMatchesReference(g, params).size();
  }
  EXPECT_LT(one_groups, many_groups);
  EXPECT_GE(many_groups, 4u);
}

/// Frontier CorePruning leaves the view in exactly the state the sequential
/// deque cascade did: same active sets, same active degrees of the active
/// vertices. (Degrees of INACTIVE vertices are unspecified in both
/// schedules — nothing may read them.)
TEST(FrontierCorePruningTest, ViewStateMatchesSequential) {
  for (const uint64_t seed : {3u, 11u, 29u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const auto g = graph::GraphBuilder::FromTable(MakeWorkload(seed)).value();
    const RicdParams params = MakeParams(5, 5, 0.9);

    engine::WorkerEngine seq_engine(1);
    ExtensionBicliqueExtractor seq(params, &seq_engine);
    graph::MutableView seq_view(g);
    seq.CorePruning(seq_view, nullptr);

    for (const size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers);
      engine::WorkerEngine engine(workers);
      ExtensionBicliqueExtractor par(params, &engine, ForcedParallelSchedule());
      graph::MutableView view(g);
      par.CorePruning(view, nullptr);

      ASSERT_EQ(view.NumActive(Side::kUser), seq_view.NumActive(Side::kUser));
      ASSERT_EQ(view.NumActive(Side::kItem), seq_view.NumActive(Side::kItem));
      for (VertexId u = 0; u < g.num_users(); ++u) {
        ASSERT_EQ(view.IsActive(Side::kUser, u),
                  seq_view.IsActive(Side::kUser, u));
        if (view.IsActive(Side::kUser, u)) {
          ASSERT_EQ(view.ActiveDegree(Side::kUser, u),
                    seq_view.ActiveDegree(Side::kUser, u));
        }
      }
      for (VertexId v = 0; v < g.num_items(); ++v) {
        ASSERT_EQ(view.IsActive(Side::kItem, v),
                  seq_view.IsActive(Side::kItem, v));
        if (view.IsActive(Side::kItem, v)) {
          ASSERT_EQ(view.ActiveDegree(Side::kItem, v),
                    seq_view.ActiveDegree(Side::kItem, v));
        }
      }
    }
  }
}

/// Pinning the round size (what RICD_ROUND_SIZE does) must not change
/// output either — the equivalence argument is per-round-size-agnostic.
TEST(ParallelExtractionTest, AnyPinnedRoundSizeMatches) {
  const auto g = graph::GraphBuilder::FromTable(MakeWorkload(42)).value();
  const RicdParams params = MakeParams(5, 5, 0.8);
  engine::WorkerEngine seq_engine(1);
  const auto ref = ExtensionBicliqueExtractor(params, &seq_engine).Extract(g);
  ASSERT_TRUE(ref.ok());

  engine::WorkerEngine engine(4);
  for (const uint32_t pinned : {1u, 3u, 17u, 1000u}) {
    SCOPED_TRACE(testing::Message() << "round=" << pinned);
    PruneSchedule s = ForcedParallelSchedule();
    s.min_round = pinned;
    s.initial_round = pinned;
    s.max_round = pinned;
    const auto got = ExtensionBicliqueExtractor(params, &engine, s).Extract(g);
    ASSERT_TRUE(got.ok());
    ExpectSameGroups(*ref, *got);
  }
}

TEST(RoundSchedulerTest, GrowsWhenCleanShrinksWhenDense) {
  PruneSchedule s;
  s.min_round = 16;
  s.initial_round = 64;
  s.max_round = 256;
  RoundScheduler rounds(s);
  EXPECT_EQ(rounds.current_round_size(), 64u);

  rounds.Observe(64, 0);  // clean round -> double
  EXPECT_EQ(rounds.current_round_size(), 128u);
  rounds.Observe(128, 0);
  rounds.Observe(256, 0);  // capped at max
  EXPECT_EQ(rounds.current_round_size(), 256u);

  rounds.Observe(256, 32);  // density 1/8 -> halve
  EXPECT_EQ(rounds.current_round_size(), 128u);
  rounds.Observe(128, 127);
  rounds.Observe(64, 64);
  rounds.Observe(32, 32);  // floored at min
  EXPECT_EQ(rounds.current_round_size(), 16u);

  rounds.Observe(16, 1);  // sparse removals: size holds
  EXPECT_EQ(rounds.current_round_size(), 16u);
}

TEST(RoundSchedulerTest, NextRoundSizeClampedByRemaining) {
  PruneSchedule s;
  s.min_round = 16;
  s.initial_round = 64;
  s.max_round = 256;
  const RoundScheduler rounds(s);
  EXPECT_EQ(rounds.NextRoundSize(1000), 64u);
  EXPECT_EQ(rounds.NextRoundSize(10), 10u);
  EXPECT_EQ(rounds.NextRoundSize(0), 0u);
}

TEST(PruneScheduleTest, EnvPinsRoundSize) {
  ASSERT_EQ(setenv("RICD_ROUND_SIZE", "96", 1), 0);
  const PruneSchedule pinned = PruneSchedule::FromEnv();
  EXPECT_EQ(pinned.min_round, 96u);
  EXPECT_EQ(pinned.initial_round, 96u);
  EXPECT_EQ(pinned.max_round, 96u);

  ASSERT_EQ(setenv("RICD_ROUND_SIZE", "not-a-number", 1), 0);
  const PruneSchedule fallback = PruneSchedule::FromEnv();
  EXPECT_EQ(fallback.initial_round, PruneSchedule().initial_round);

  ASSERT_EQ(unsetenv("RICD_ROUND_SIZE"), 0);
  const PruneSchedule defaults = PruneSchedule::FromEnv();
  EXPECT_EQ(defaults.min_round, PruneSchedule().min_round);
  EXPECT_EQ(defaults.max_round, PruneSchedule().max_round);
}

TEST(PerWorkerBuffersTest, ConcatPreservesWorkerOrder) {
  engine::PerWorkerBuffers<uint32_t> buffers(3);
  buffers.ForWorker(2).push_back(30);
  buffers.ForWorker(0).push_back(10);
  buffers.ForWorker(0).push_back(11);
  buffers.ForWorker(1).push_back(20);
  EXPECT_EQ(buffers.TotalSize(), 4u);
  EXPECT_FALSE(buffers.Empty());

  std::vector<uint32_t> out{99};
  buffers.ConcatTo(&out);
  EXPECT_EQ(out, (std::vector<uint32_t>{99, 10, 11, 20, 30}));
}

TEST(PerWorkerBuffersTest, SortedToSortsOnlyAppendedSuffix) {
  engine::PerWorkerBuffers<uint32_t> buffers(2);
  buffers.ForWorker(0).push_back(7);
  buffers.ForWorker(0).push_back(2);
  buffers.ForWorker(1).push_back(5);

  std::vector<uint32_t> out{100};  // existing prefix stays put
  buffers.SortedTo(&out);
  EXPECT_EQ(out, (std::vector<uint32_t>{100, 2, 5, 7}));
}

TEST(PerWorkerBuffersTest, ClearEmptiesEveryBuffer) {
  engine::PerWorkerBuffers<uint32_t> buffers(2);
  buffers.ForWorker(0).push_back(1);
  buffers.ForWorker(1).push_back(2);
  buffers.Clear();
  EXPECT_TRUE(buffers.Empty());
  EXPECT_EQ(buffers.TotalSize(), 0u);
  std::vector<uint32_t> out;
  buffers.ConcatTo(&out);
  EXPECT_TRUE(out.empty());
}

TEST(PerWorkerBuffersTest, ZeroWorkersClampedToOne) {
  engine::PerWorkerBuffers<uint32_t> buffers(0);
  EXPECT_EQ(buffers.num_workers(), 1u);
}

}  // namespace
}  // namespace ricd::core
