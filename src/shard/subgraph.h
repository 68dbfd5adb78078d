#ifndef RICD_SHARD_SUBGRAPH_H_
#define RICD_SHARD_SUBGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/bipartite_graph.h"
#include "shard/core_fixpoint.h"
#include "shard/shard_plan.h"
#include "shard/sharded_graph.h"
#include "table/click_record.h"

namespace ricd::shard {

inline constexpr uint32_t kNoComponent = 0xFFFFFFFFu;

/// Connected components of the *survivor* subgraph (vertices alive after
/// DistributedCorePrune, edges with both endpoints alive). Component ids are
/// assigned in ascending order of each component's minimum global user id,
/// so the numbering is independent of shard count and traversal order.
///
/// Every survivor has at least min-degree >= 1 surviving neighbors (the
/// fixpoint guarantees it), so every survivor belongs to exactly one
/// component and comp_min_user is well defined.
struct ComponentSet {
  std::vector<uint32_t> comp_of_user;  // global user -> comp (kNoComponent)
  std::vector<uint32_t> comp_of_item;  // global item -> comp (kNoComponent)
  std::vector<graph::VertexId> comp_min_user;  // comp -> min global user
  std::vector<uint64_t> comp_edges;            // comp -> survivor edge count
  uint32_t num_components = 0;
};

Result<ComponentSet> FindSurvivorComponents(ShardedGraph& sg,
                                            const CoreFixpoint& fx);

/// Assigns each component to an extraction shard. kGreedy packs components
/// onto the least-loaded shard in (survivor edges desc, min user asc) order
/// with ties broken toward the lowest shard id; kHash routes by
/// SplitMix64Hash of the component's minimum user's *external* id.
/// Detection output is invariant to the policy (components never interact),
/// so the choice only moves work between shards.
std::vector<uint32_t> RouteComponents(const ComponentSet& comps,
                                      std::span<const table::UserId> user_ids,
                                      uint32_t num_shards,
                                      BalancePolicy policy);

/// One extraction shard: the components routed to it, materialized as two
/// adopted graphs over the same global vertex ids.
///
///  * `survivor` holds only survivor-survivor edges. The initial CorePruning
///    of ExtensionBicliqueExtractor::Extract is a no-op on it (it *is* the
///    fixpoint), and the square/core sweeps decompose per component, so
///    Extract here reproduces the monolithic extractor's groups for the
///    routed components exactly.
///  * `closure` adds every edge incident to a survivor of these components
///    (and the non-survivor boundary endpoints those edges drag in). A
///    survivor's full adjacency is therefore present, which is what
///    screening and risk ranking walk; boundary vertices are never group
///    members, so their (partial) adjacency is never consulted.
///
/// Local ids on both graphs are the rank of the vertex's global id in the
/// shard's sorted vertex set — order-preserving in the global ids, which
/// keeps every per-shard tie-break aligned with the monolithic run.
struct ExtractionShard {
  graph::BipartiteGraph survivor;
  graph::BipartiteGraph closure;
  std::vector<graph::VertexId> survivor_user_global;  // survivor-local -> global
  std::vector<graph::VertexId> survivor_item_global;
  std::vector<graph::VertexId> closure_user_global;  // closure-local -> global
  std::vector<graph::VertexId> closure_item_global;
  uint64_t survivor_edges = 0;

  bool empty() const { return survivor_user_global.empty(); }

  /// Closure-local id of a global vertex known to be in the closure.
  graph::VertexId ClosureUserLocal(graph::VertexId gu) const;
  graph::VertexId ClosureItemLocal(graph::VertexId gv) const;
};

/// Gathers every closure edge from the build shards (one pass, shards loaded
/// one at a time) and materializes the extraction shards named by `routing`
/// (component -> shard, values < sg.num_shards).
Result<std::vector<ExtractionShard>> BuildExtractionShards(
    ShardedGraph& sg, const CoreFixpoint& fx, const ComponentSet& comps,
    std::span<const uint32_t> routing);

}  // namespace ricd::shard

#endif  // RICD_SHARD_SUBGRAPH_H_
