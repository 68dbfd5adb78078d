#include "shard/subgraph.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/logging.h"
#include "graph/adopted_graph.h"

namespace ricd::shard {
namespace {

using graph::VertexId;

/// Union-find over the combined user+item id space with path halving.
struct Dsu {
  explicit Dsu(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0u);
  }
  uint32_t Find(uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<uint32_t> parent;
};

struct ClosureEdge {
  VertexId gu;
  VertexId gv;
  table::ClickCount clicks;
  uint8_t survivor;
};

/// Adopts the graph over `edges` (sorted by (gu, gv), each pair unique)
/// with vertex sets `user_globals`/`item_globals` (sorted global ids;
/// exactly the endpoints of `edges`). Local ids are ranks in those arrays,
/// so both sides are order-preserving in the global ids and each user's
/// adjacency arrives already sorted.
graph::BipartiteGraph BuildSubgraph(std::span<const ClosureEdge> edges,
                                    const std::vector<VertexId>& user_globals,
                                    const std::vector<VertexId>& item_globals,
                                    const ShardedGraph& sg,
                                    std::span<const VertexId> user_local,
                                    std::span<const VertexId> item_local) {
  auto storage = std::make_shared<graph::AdoptedStorage>();
  storage->user_ids.reserve(user_globals.size());
  storage->item_ids.reserve(item_globals.size());
  for (const VertexId gu : user_globals) {
    storage->user_ids.push_back(sg.user_ids[gu]);
  }
  for (const VertexId gv : item_globals) {
    storage->item_ids.push_back(sg.item_ids[gv]);
  }
  storage->user_offsets.assign(user_globals.size() + 1, 0);
  storage->user_adj.reserve(edges.size());
  storage->user_clicks.reserve(edges.size());
  for (const ClosureEdge& e : edges) {
    ++storage->user_offsets[user_local[e.gu] + 1];
    storage->user_adj.push_back(item_local[e.gv]);
    storage->user_clicks.push_back(e.clicks);
  }
  for (size_t u = 0; u < user_globals.size(); ++u) {
    storage->user_offsets[u + 1] += storage->user_offsets[u];
  }
  return graph::BuildAdoptedGraph(std::move(storage));
}

VertexId RankOf(const std::vector<VertexId>& sorted_globals, VertexId g) {
  const auto it =
      std::lower_bound(sorted_globals.begin(), sorted_globals.end(), g);
  RICD_DCHECK(it != sorted_globals.end() && *it == g);
  return static_cast<VertexId>(it - sorted_globals.begin());
}

}  // namespace

VertexId ExtractionShard::ClosureUserLocal(VertexId gu) const {
  return RankOf(closure_user_global, gu);
}

VertexId ExtractionShard::ClosureItemLocal(VertexId gv) const {
  return RankOf(closure_item_global, gv);
}

Result<ComponentSet> FindSurvivorComponents(ShardedGraph& sg,
                                            const CoreFixpoint& fx) {
  const uint32_t num_users = sg.num_users();
  const uint32_t num_items = sg.num_items();
  const bool spilled = sg.spilled();

  Dsu dsu(static_cast<size_t>(num_users) + num_items);
  std::vector<uint32_t> survivor_deg(num_users, 0);
  for (uint32_t k = 0; k < sg.num_shards; ++k) {
    RICD_RETURN_IF_ERROR(sg.EnsureLoaded(k));
    const GraphShard& shard = sg.shards[k];
    for (VertexId lu = 0; lu < shard.graph.num_users(); ++lu) {
      const VertexId gu = shard.user_global[lu];
      if (fx.user_alive[gu] == 0) continue;
      for (const VertexId lv : shard.graph.UserNeighbors(lu)) {
        const VertexId gv = shard.item_global[lv];
        if (fx.item_alive[gv] == 0) continue;
        dsu.Union(gu, num_users + gv);
        ++survivor_deg[gu];
      }
    }
    if (spilled) sg.Release(k);
  }

  // Number the components by ascending minimum global user: a single
  // ascending scan hands out ids first-seen, which is exactly that order.
  ComponentSet comps;
  comps.comp_of_user.assign(num_users, kNoComponent);
  comps.comp_of_item.assign(num_items, kNoComponent);
  std::vector<uint32_t> root_comp(static_cast<size_t>(num_users) + num_items,
                                  kNoComponent);
  for (VertexId gu = 0; gu < num_users; ++gu) {
    if (fx.user_alive[gu] == 0) continue;
    const uint32_t root = dsu.Find(gu);
    if (root_comp[root] == kNoComponent) {
      root_comp[root] = comps.num_components++;
      comps.comp_min_user.push_back(gu);
    }
    comps.comp_of_user[gu] = root_comp[root];
  }
  for (VertexId gv = 0; gv < num_items; ++gv) {
    if (fx.item_alive[gv] == 0) continue;
    const uint32_t root = dsu.Find(num_users + gv);
    // Every survivor item has a survivor user neighbor (its fixpoint degree
    // bound is >= 1), so its root was named during the user scan.
    RICD_DCHECK_NE(root_comp[root], kNoComponent);
    comps.comp_of_item[gv] = root_comp[root];
  }
  comps.comp_edges.assign(comps.num_components, 0);
  for (VertexId gu = 0; gu < num_users; ++gu) {
    if (comps.comp_of_user[gu] != kNoComponent) {
      comps.comp_edges[comps.comp_of_user[gu]] += survivor_deg[gu];
    }
  }
  return comps;
}

std::vector<uint32_t> RouteComponents(const ComponentSet& comps,
                                      std::span<const table::UserId> user_ids,
                                      uint32_t num_shards,
                                      BalancePolicy policy) {
  std::vector<uint32_t> route(comps.num_components, 0);
  if (num_shards <= 1) return route;

  if (policy == BalancePolicy::kHash) {
    for (uint32_t c = 0; c < comps.num_components; ++c) {
      route[c] = static_cast<uint32_t>(
          SplitMix64Hash(static_cast<uint64_t>(
              user_ids[comps.comp_min_user[c]])) %
          num_shards);
    }
    return route;
  }

  // Greedy LPT bin packing: place big components first onto the currently
  // least-loaded shard. Both orderings are total, so the routing (and hence
  // the balance numbers, not just the merged output) is deterministic.
  std::vector<uint32_t> order(comps.num_components);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (comps.comp_edges[a] != comps.comp_edges[b]) {
      return comps.comp_edges[a] > comps.comp_edges[b];
    }
    return comps.comp_min_user[a] < comps.comp_min_user[b];
  });
  std::vector<uint64_t> load(num_shards, 0);
  for (const uint32_t c : order) {
    uint32_t best = 0;
    for (uint32_t s = 1; s < num_shards; ++s) {
      if (load[s] < load[best]) best = s;
    }
    route[c] = best;
    load[best] += comps.comp_edges[c];
  }
  return route;
}

Result<std::vector<ExtractionShard>> BuildExtractionShards(
    ShardedGraph& sg, const CoreFixpoint& fx, const ComponentSet& comps,
    std::span<const uint32_t> routing) {
  const uint32_t num_users = sg.num_users();
  const bool spilled = sg.spilled();

  // One pass over the build shards: every edge is inspected exactly once
  // (each edge lives in its user's home shard only) and lands in at most
  // one extraction shard — the one its component routes to.
  std::vector<std::vector<ClosureEdge>> buckets(sg.num_shards);
  for (uint32_t k = 0; k < sg.num_shards; ++k) {
    RICD_RETURN_IF_ERROR(sg.EnsureLoaded(k));
    const GraphShard& shard = sg.shards[k];
    for (VertexId lu = 0; lu < shard.graph.num_users(); ++lu) {
      const VertexId gu = shard.user_global[lu];
      const bool user_alive = fx.user_alive[gu] != 0;
      const auto neighbors = shard.graph.UserNeighbors(lu);
      const auto clicks = shard.graph.UserEdgeClicks(lu);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        const VertexId gv = shard.item_global[neighbors[i]];
        const bool item_alive = fx.item_alive[gv] != 0;
        uint32_t comp;
        if (user_alive) {
          comp = comps.comp_of_user[gu];
        } else if (item_alive) {
          comp = comps.comp_of_item[gv];
        } else {
          continue;  // both endpoints pruned: not in any closure
        }
        buckets[routing[comp]].push_back(
            {gu, gv, clicks[i],
             static_cast<uint8_t>(user_alive && item_alive)});
      }
    }
    if (spilled) sg.Release(k);
  }

  std::vector<ExtractionShard> out(sg.num_shards);
  std::vector<VertexId> user_local(num_users, kNoVertex);
  std::vector<VertexId> item_local(sg.num_items(), kNoVertex);
  for (uint32_t s = 0; s < sg.num_shards; ++s) {
    std::vector<ClosureEdge>& edges = buckets[s];
    std::sort(edges.begin(), edges.end(),
              [](const ClosureEdge& a, const ClosureEdge& b) {
                if (a.gu != b.gu) return a.gu < b.gu;
                return a.gv < b.gv;
              });
    ExtractionShard& shard = out[s];
    std::vector<ClosureEdge> survivor_edges;
    for (const ClosureEdge& e : edges) {
      shard.closure_user_global.push_back(e.gu);
      shard.closure_item_global.push_back(e.gv);
      if (e.survivor != 0) {
        survivor_edges.push_back(e);
        shard.survivor_user_global.push_back(e.gu);
        shard.survivor_item_global.push_back(e.gv);
      }
    }
    shard.survivor_edges = survivor_edges.size();
    for (auto* ids :
         {&shard.closure_user_global, &shard.closure_item_global,
          &shard.survivor_user_global, &shard.survivor_item_global}) {
      std::sort(ids->begin(), ids->end());
      ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
    }

    // Closure graph over all gathered edges.
    for (size_t i = 0; i < shard.closure_user_global.size(); ++i) {
      user_local[shard.closure_user_global[i]] = static_cast<VertexId>(i);
    }
    for (size_t i = 0; i < shard.closure_item_global.size(); ++i) {
      item_local[shard.closure_item_global[i]] = static_cast<VertexId>(i);
    }
    shard.closure = BuildSubgraph(edges, shard.closure_user_global,
                                  shard.closure_item_global, sg, user_local,
                                  item_local);

    // Survivor graph over the survivor-survivor subset.
    for (size_t i = 0; i < shard.survivor_user_global.size(); ++i) {
      user_local[shard.survivor_user_global[i]] = static_cast<VertexId>(i);
    }
    for (size_t i = 0; i < shard.survivor_item_global.size(); ++i) {
      item_local[shard.survivor_item_global[i]] = static_cast<VertexId>(i);
    }
    shard.survivor =
        BuildSubgraph(survivor_edges, shard.survivor_user_global,
                      shard.survivor_item_global, sg, user_local, item_local);

    // Reset only the slots this shard touched (closure is a superset of
    // survivor on both sides).
    for (const VertexId gu : shard.closure_user_global) {
      user_local[gu] = kNoVertex;
    }
    for (const VertexId gv : shard.closure_item_global) {
      item_local[gv] = kNoVertex;
    }
    edges.clear();
    edges.shrink_to_fit();
  }
  return out;
}

}  // namespace ricd::shard
