#include "obs/metric_names.h"
#include "ricd/extension_biclique.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "check/validate.h"
#include "engine/worker_buffers.h"
#include "graph/adopted_graph.h"
#include "graph/connected_components.h"
#include "graph/intersection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ricd::core {
namespace {

using graph::Side;
using graph::VertexId;

uint32_t CeilMul(double alpha, uint32_t k) {
  return static_cast<uint32_t>(std::ceil(alpha * static_cast<double>(k)));
}

/// Stage counters, resolved once; totals are bulk-added per stage so the
/// pruning inner loops stay counter-free.
struct ExtractionCounters {
  obs::Counter* users_pruned_core;
  obs::Counter* items_pruned_core;
  obs::Counter* users_pruned_square;
  obs::Counter* items_pruned_square;
  obs::Counter* candidate_groups;
  obs::Counter* sweeps;
  obs::Counter* rounds;
  obs::Counter* round_rechecks;
  obs::Counter* core_levels;
  obs::Counter* scratch_reuses;
  obs::Counter* square_input_edges;

  static const ExtractionCounters& Get() {
    static const ExtractionCounters counters = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return ExtractionCounters{
          registry.GetCounter(obs::metric_names::kRicdExtractionUsersPrunedCore),
          registry.GetCounter(obs::metric_names::kRicdExtractionItemsPrunedCore),
          registry.GetCounter(obs::metric_names::kRicdExtractionUsersPrunedSquare),
          registry.GetCounter(obs::metric_names::kRicdExtractionItemsPrunedSquare),
          registry.GetCounter(obs::metric_names::kRicdExtractionCandidateGroups),
          registry.GetCounter(obs::metric_names::kRicdExtractionSweeps),
          registry.GetCounter(obs::metric_names::kRicdExtractionRounds),
          registry.GetCounter(obs::metric_names::kRicdExtractionRoundRechecks),
          registry.GetCounter(obs::metric_names::kRicdExtractionCoreLevels),
          registry.GetCounter(obs::metric_names::kRicdExtractionScratchReuses),
          registry.GetCounter(
              obs::metric_names::kRicdExtractionSquareInputEdges)};
    }();
    return counters;
  }
};

/// Reusable per-worker scratch of the Lemma-2 test: a flat counting array
/// (reset cost proportional to the touched list, not to n) plus the touched
/// list itself. Pooled per worker and reused across every candidate and
/// round — the parallel schedule allocates nothing per candidate.
struct PruneScratch {
  std::vector<uint32_t> counts;
  std::vector<VertexId> touched;

  void EnsureUniverse(uint32_t n) {
    if (counts.size() < n) counts.assign(n, 0);
  }
};

/// The Lemma-2 qualification test for candidate `x` against the current
/// state of `view`: counts, for every active same-side vertex y reachable
/// in two hops, |N(x) ∩ N(y)| restricted to active counterparts, then asks
/// whether at least `neighbors_needed` of them (x itself included) reach
/// `common_needed`. Read-only on `view`, so any number of workers may run
/// it concurrently against a fixed view.
bool PassesLemma2(const graph::MutableView& view, Side side, VertexId x,
                  uint32_t common_needed, uint32_t neighbors_needed,
                  PruneScratch& scratch) {
  const graph::BipartiteGraph& g = view.graph();
  const Side other = Other(side);
  scratch.touched.clear();
  for (const VertexId w : g.Neighbors(side, x)) {
    if (!view.IsActive(other, w)) continue;
    for (const VertexId y : g.Neighbors(other, w)) {
      if (!view.IsActive(side, y)) continue;
      if (scratch.counts[y]++ == 0) scratch.touched.push_back(y);
    }
  }

  // counts[x] is x's own active degree, so x is counted as its own
  // (alpha, k)-neighbor exactly when Lemma 1 already holds for it.
  const uint64_t qualified =
      graph::CountAtLeast(scratch.counts, scratch.touched, common_needed);

  for (const VertexId y : scratch.touched) scratch.counts[y] = 0;
  return qualified >= neighbors_needed;
}

/// The active vertices of a view compacted into their own adopted CSR.
/// On each side a survivor's local id is its rank among the survivors, so
/// `user_source`/`item_source` (local id -> source id) are ascending and
/// the mapping is monotone. Only live-to-live edges are kept, with their
/// clicks.
struct CompactSurvivors {
  graph::BipartiteGraph graph;
  std::vector<VertexId> user_source;
  std::vector<VertexId> item_source;
};

CompactSurvivors CompactActive(const graph::MutableView& view) {
  const graph::BipartiteGraph& g = view.graph();
  CompactSurvivors out;
  out.user_source = view.ActiveVertices(Side::kUser);
  out.item_source = view.ActiveVertices(Side::kItem);
  std::vector<VertexId> item_local(g.num_items(), 0);
  for (size_t i = 0; i < out.item_source.size(); ++i) {
    item_local[out.item_source[i]] = static_cast<VertexId>(i);
  }

  auto storage = std::make_shared<graph::AdoptedStorage>();
  uint64_t live_edges = 0;
  storage->user_ids.reserve(out.user_source.size());
  for (const VertexId u : out.user_source) {
    storage->user_ids.push_back(g.ExternalUserId(u));
    live_edges += view.ActiveDegree(Side::kUser, u);
  }
  storage->item_ids.reserve(out.item_source.size());
  for (const VertexId v : out.item_source) {
    storage->item_ids.push_back(g.ExternalItemId(v));
  }
  storage->user_offsets.reserve(out.user_source.size() + 1);
  storage->user_adj.reserve(live_edges);
  storage->user_clicks.reserve(live_edges);
  // Source adjacency is sorted and item_local is monotone, so each
  // survivor's compact adjacency comes out sorted as well.
  for (const VertexId u : out.user_source) {
    const auto neighbors = g.UserNeighbors(u);
    const auto clicks = g.UserEdgeClicks(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (!view.IsActive(Side::kItem, neighbors[i])) continue;
      storage->user_adj.push_back(item_local[neighbors[i]]);
      storage->user_clicks.push_back(clicks[i]);
    }
    storage->user_offsets.push_back(storage->user_adj.size());
  }
  out.graph = graph::BuildAdoptedGraph(std::move(storage));
  return out;
}

}  // namespace

void ExtensionBicliqueExtractor::CorePruning(graph::MutableView& view,
                                             ExtractionStats* stats) const {
  RICD_TRACE_SPAN("ricd.extraction.core_pruning");
  const uint32_t min_user_degree = CeilMul(params_.alpha, params_.k2);
  const uint32_t min_item_degree = CeilMul(params_.alpha, params_.k1);
  const graph::BipartiteGraph& g = view.graph();
  const size_t workers = engine_->num_workers();

  // Level-synchronous frontier cascade. The removed set is the unique
  // fixpoint of "drop active vertices with active degree < min" (removals
  // only lower neighbor degrees), so any schedule — the old sequential
  // deque, these frontiers, any worker count — yields the same final view.
  //
  // Seed frontiers: every active under-degree vertex, found by a chunked
  // parallel scan. Workers own contiguous ascending ranges and append in
  // order, so concatenating the buffers in worker order is already sorted.
  engine::PerWorkerBuffers<VertexId> user_buf(workers);
  engine::PerWorkerBuffers<VertexId> item_buf(workers);
  engine_->ParallelForChunks(
      g.num_users(), [&](size_t worker, engine::VertexRange range) {
        auto& out = user_buf.ForWorker(worker);
        for (VertexId u = range.begin; u < range.end; ++u) {
          if (view.IsActive(Side::kUser, u) &&
              view.ActiveDegree(Side::kUser, u) < min_user_degree) {
            out.push_back(u);
          }
        }
      });
  engine_->ParallelForChunks(
      g.num_items(), [&](size_t worker, engine::VertexRange range) {
        auto& out = item_buf.ForWorker(worker);
        for (VertexId v = range.begin; v < range.end; ++v) {
          if (view.IsActive(Side::kItem, v) &&
              view.ActiveDegree(Side::kItem, v) < min_item_degree) {
            out.push_back(v);
          }
        }
      });
  std::vector<VertexId> user_frontier;
  std::vector<VertexId> item_frontier;
  user_buf.ConcatTo(&user_frontier);
  item_buf.ConcatTo(&item_frontier);

  // Expands one side's frontier: decrement the active degree of every
  // still-active counterpart; a neighbor joins the next frontier exactly
  // when its degree crosses from `other_min` to `other_min - 1` — each
  // vertex crosses once globally, so frontiers stay duplicate-free without
  // a dedup pass. Above the cutoff the decrements run atomically across
  // workers (commutative, hence deterministic final degrees) and the
  // per-worker discoveries are merged in worker order + sorted.
  uint32_t levels = 0;
  const auto expand = [&](Side side, const std::vector<VertexId>& frontier,
                          uint32_t other_min, std::vector<VertexId>* next) {
    const Side other = Other(side);
    if (workers == 1 || frontier.size() < schedule_.frontier_cutoff) {
      for (const VertexId x : frontier) {
        for (const VertexId w : g.Neighbors(side, x)) {
          if (!view.IsActive(other, w)) continue;
          if (view.DecrementDegree(other, w) == other_min) {
            next->push_back(w);
          }
        }
      }
      std::sort(next->begin(), next->end());
      return;
    }
    engine::PerWorkerBuffers<VertexId> next_buf(workers);
    engine_->ParallelForChunks(
        static_cast<uint32_t>(frontier.size()),
        [&](size_t worker, engine::VertexRange range) {
          auto& out = next_buf.ForWorker(worker);
          for (uint32_t i = range.begin; i < range.end; ++i) {
            for (const VertexId w : g.Neighbors(side, frontier[i])) {
              if (!view.IsActive(other, w)) continue;
              if (view.DecrementDegreeAtomic(other, w) == other_min) {
                out.push_back(w);
              }
            }
          }
        });
    next_buf.SortedTo(next);
  };

  uint32_t users_removed = 0;
  uint32_t items_removed = 0;
  std::vector<VertexId> next_users;
  std::vector<VertexId> next_items;
  while (!user_frontier.empty() || !item_frontier.empty()) {
    ++levels;
    users_removed += static_cast<uint32_t>(user_frontier.size());
    items_removed += static_cast<uint32_t>(item_frontier.size());
    // Deactivate the whole level before any degree update so intra-level
    // edges cannot re-discover a vertex that is already being removed.
    view.DeactivateBatch(Side::kUser, user_frontier);
    view.DeactivateBatch(Side::kItem, item_frontier);
    next_users.clear();
    next_items.clear();
    expand(Side::kUser, user_frontier, min_item_degree, &next_items);
    expand(Side::kItem, item_frontier, min_user_degree, &next_users);
    user_frontier.swap(next_users);
    item_frontier.swap(next_items);
  }

  if (stats != nullptr) {
    stats->users_removed_core += users_removed;
    stats->items_removed_core += items_removed;
  }
  ExtractionCounters::Get().users_pruned_core->Add(users_removed);
  ExtractionCounters::Get().items_pruned_core->Add(items_removed);
  ExtractionCounters::Get().core_levels->Add(levels);
}

void ExtensionBicliqueExtractor::SquarePruneSide(graph::MutableView& view,
                                                 Side side, bool ordered,
                                                 ExtractionStats* stats) const {
  const graph::BipartiteGraph& g = view.graph();
  const uint32_t n = g.num_vertices(side);
  const Side other = Other(side);
  const size_t workers = engine_->num_workers();

  // Thresholds per Definition 4 / Lemma 2: a user needs >= k1 members in
  // its (alpha, k2)-neighbor set (self included); items symmetrically.
  const uint32_t common_needed =
      CeilMul(params_.alpha, side == Side::kUser ? params_.k2 : params_.k1);
  const uint32_t neighbors_needed = side == Side::kUser ? params_.k1 : params_.k2;

  // Candidate order: non-decreasing two-hop neighborhood size (sum of
  // active counterpart degrees), the reduce2Hop ordering.
  std::vector<VertexId> order;
  order.reserve(view.NumActive(side));
  for (VertexId x = 0; x < n; ++x) {
    if (view.IsActive(side, x)) order.push_back(x);
  }
  if (ordered) {
    // Two-hop sizes are independent per vertex: chunked across workers,
    // each writing a disjoint range of `two_hop`.
    std::vector<uint64_t> two_hop(n, 0);
    engine_->ParallelForChunks(n, [&](size_t, engine::VertexRange range) {
      for (VertexId x = range.begin; x < range.end; ++x) {
        if (!view.IsActive(side, x)) continue;
        uint64_t size = 0;
        for (const VertexId w : g.Neighbors(side, x)) {
          if (view.IsActive(other, w)) size += view.ActiveDegree(other, w);
        }
        two_hop[x] = size;
      }
    });
    std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      return two_hop[a] < two_hop[b];
    });
  }

  const auto commit_removal = [&](VertexId x) {
    view.Remove(side, x);
    if (stats != nullptr) {
      if (side == Side::kUser) {
        ++stats->users_removed_square;
      } else {
        ++stats->items_removed_square;
      }
    }
  };

  // Sequential path (single worker or tiny candidate list): the classic
  // immediate-removal cascade. This is the reference schedule the round
  // path must match bit for bit.
  if (workers == 1 || order.size() < schedule_.sequential_cutoff) {
    PruneScratch scratch;
    scratch.EnsureUniverse(n);
    for (const VertexId x : order) {
      if (!PassesLemma2(view, side, x, common_needed, neighbors_needed,
                        scratch)) {
        commit_removal(x);
      }
    }
    return;
  }

  // Round-based parallel schedule. Each round evaluates a slice of the
  // candidate order against the ROUND-START view in parallel (per-worker
  // pooled scratch, zero allocation per candidate), then commits decisions
  // in candidate order. Serial equivalence rests on Lemma-2 monotonicity:
  // a side pass only removes same-side vertices, removals only shrink the
  // qualified set, so
  //   * a snapshot FAIL stays a fail under the (smaller) sequential view at
  //     that candidate's turn -> removal commits without re-checking;
  //   * a snapshot PASS is final while no removal precedes the candidate in
  //     this round (the views coincide), and is re-evaluated against the
  //     live view otherwise — exactly the sequential state at its turn.
  std::vector<PruneScratch> scratch(workers);
  for (PruneScratch& s : scratch) s.EnsureUniverse(n);
  engine::PerWorkerBuffers<uint32_t> fail_buf(workers);
  std::vector<uint32_t> fails;
  RoundScheduler rounds(schedule_);
  uint64_t rounds_run = 0;
  uint64_t rechecks = 0;
  uint64_t pooled_evals = 0;
  size_t pos = 0;
  while (pos < order.size()) {
    const uint32_t round_size = rounds.NextRoundSize(order.size() - pos);
    RICD_TRACE_SPAN("ricd.extraction.square_round");
    fail_buf.Clear();
    engine_->ParallelForChunks(
        round_size, [&](size_t worker, engine::VertexRange range) {
          PruneScratch& sc = scratch[worker];
          auto& out = fail_buf.ForWorker(worker);
          for (uint32_t i = range.begin; i < range.end; ++i) {
            if (!PassesLemma2(view, side, order[pos + i], common_needed,
                              neighbors_needed, sc)) {
              out.push_back(i);
            }
          }
        });
    fails.clear();
    fail_buf.ConcatTo(&fails);  // contiguous ascending ranges -> sorted

    uint32_t removals = 0;
    if (!fails.empty()) {
      // Candidates before the first snapshot failure saw a view identical
      // to the snapshot — their PASS is final; start committing there.
      size_t f = 0;
      for (uint32_t i = fails[0]; i < round_size; ++i) {
        const VertexId x = order[pos + i];
        bool remove;
        if (f < fails.size() && fails[f] == i) {
          remove = true;
          ++f;
        } else {
          ++rechecks;
          remove = !PassesLemma2(view, side, x, common_needed,
                                 neighbors_needed, scratch[0]);
        }
        if (remove) {
          commit_removal(x);
          ++removals;
        }
      }
    }
    rounds.Observe(round_size, removals);
    ++rounds_run;
    pooled_evals += round_size;
    pos += round_size;
  }
  ExtractionCounters::Get().rounds->Add(rounds_run);
  ExtractionCounters::Get().round_rechecks->Add(rechecks);
  ExtractionCounters::Get().scratch_reuses->Add(pooled_evals);
}

void ExtensionBicliqueExtractor::SquarePruning(graph::MutableView& view,
                                               bool ordered,
                                               ExtractionStats* stats) const {
  RICD_TRACE_SPAN("ricd.extraction.square_pruning");
  ExtractionStats local;
  SquarePruneSide(view, Side::kUser, ordered, &local);
  SquarePruneSide(view, Side::kItem, ordered, &local);
  if (stats != nullptr) {
    stats->users_removed_square += local.users_removed_square;
    stats->items_removed_square += local.items_removed_square;
  }
  ExtractionCounters::Get().users_pruned_square->Add(local.users_removed_square);
  ExtractionCounters::Get().items_pruned_square->Add(local.items_removed_square);
}

Result<std::vector<graph::Group>> ExtensionBicliqueExtractor::ExtractImpl(
    const graph::BipartiteGraph& graph, bool square,
    ExtractionStats* stats) const {
  if (params_.alpha <= 0.0 || params_.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (params_.k1 == 0 || params_.k2 == 0) {
    return Status::InvalidArgument("k1 and k2 must be > 0");
  }

  RICD_TRACE_SPAN("ricd.extraction");
  graph::MutableView view(graph);
  CorePruning(view, stats);

  // Square pruning walks two hops per candidate, so it runs on the core
  // survivors compacted into their own CSR: the dead neighbours of hot
  // items drop out of every walk. Compact ids are survivor ranks, a
  // monotone map, so the candidate order and its stable_sort tie-breaks,
  // every Lemma-2 count, the component emission order and the member order
  // all carry over, and mapping members back reproduces the uncompacted
  // run bit for bit (DESIGN.md §9). When core pruning removed nothing the
  // source graph already is that CSR and no copy is made.
  std::optional<CompactSurvivors> compact;
  std::optional<graph::MutableView> compact_view;
  if (square && (view.NumActive(Side::kUser) < graph.num_users() ||
                 view.NumActive(Side::kItem) < graph.num_items())) {
    RICD_TRACE_SPAN("ricd.extraction.compact");
    compact = CompactActive(view);
    compact_view.emplace(compact->graph);
  }
  graph::MutableView& active = compact_view ? *compact_view : view;

  if (square) {
    ExtractionCounters::Get().square_input_edges->Add(
        active.graph().num_edges());
    for (uint32_t sweep = 0; sweep < params_.square_pruning_sweeps; ++sweep) {
      const uint32_t before =
          active.NumActive(Side::kUser) + active.NumActive(Side::kItem);
      SquarePruning(active, /*ordered=*/true, stats);
      CorePruning(active, stats);
      if (stats != nullptr) ++stats->sweeps_run;
      ExtractionCounters::Get().sweeps->Add(1);
      const uint32_t after =
          active.NumActive(Side::kUser) + active.NumActive(Side::kItem);
      if (after == before) break;
    }
  }

  std::vector<graph::Group> groups;
  {
    RICD_TRACE_SPAN("ricd.extraction.components");
    auto components = graph::ActiveConnectedComponents(active);
    for (auto& c : components) {
      if (c.users.size() < params_.k1 || c.items.size() < params_.k2) continue;
      if (params_.max_group_users > 0 &&
          c.users.size() > params_.max_group_users) {
        continue;  // Property (4b): likely group buying, not an attack.
      }
      if (compact) {
        for (VertexId& u : c.users) u = compact->user_source[u];
        for (VertexId& v : c.items) v = compact->item_source[v];
      }
      groups.push_back(std::move(c));
    }
  }
  ExtractionCounters::Get().candidate_groups->Add(groups.size());

  if (check::ValidationEnabled()) {
    if (compact) {
      RICD_RETURN_IF_ERROR(check::ValidateBipartiteGraph(compact->graph));
    }
    RICD_RETURN_IF_ERROR(check::ValidateMutableView(active));
    // Both arms end on a CorePruning fixpoint, and a component contains all
    // of its members' active neighbors — so every emitted group owes the
    // alpha condition against the source graph (Lemma 1).
    for (const graph::Group& group : groups) {
      RICD_RETURN_IF_ERROR(
          check::ValidateExtensionBiclique(graph, group, params_));
    }
  }
  return groups;
}

Result<std::vector<graph::Group>> ExtensionBicliqueExtractor::Extract(
    const graph::BipartiteGraph& graph, ExtractionStats* stats) const {
  return ExtractImpl(graph, /*square=*/true, stats);
}

Result<std::vector<graph::Group>> ExtensionBicliqueExtractor::ExtractCoreOnly(
    const graph::BipartiteGraph& graph, ExtractionStats* stats) const {
  return ExtractImpl(graph, /*square=*/false, stats);
}

}  // namespace ricd::core
