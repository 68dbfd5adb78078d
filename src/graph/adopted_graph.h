#ifndef RICD_GRAPH_ADOPTED_GRAPH_H_
#define RICD_GRAPH_ADOPTED_GRAPH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/bipartite_graph.h"
#include "table/click_record.h"

namespace ricd::graph {

/// Owned backing arrays of an adopted in-memory graph (the GraphSections
/// exchange format over heap vectors instead of an mmap). Held alive by the
/// BipartiteGraph's retention shared_ptr.
struct AdoptedStorage {
  std::vector<uint64_t> user_offsets{0};
  std::vector<uint64_t> item_offsets{0};
  std::vector<VertexId> user_adj;
  std::vector<VertexId> item_adj;
  std::vector<table::ClickCount> user_clicks;
  std::vector<table::ClickCount> item_clicks;
  std::vector<uint64_t> user_total_clicks;
  std::vector<uint64_t> item_total_clicks;
  std::vector<table::UserId> user_ids;
  std::vector<table::ItemId> item_ids;
  std::vector<VertexId> user_lookup_sorted;
  std::vector<VertexId> item_lookup_sorted;
  uint64_t total_clicks = 0;
};

/// The one assembly path for adopted CSR graphs built in memory (compacted
/// extraction graphs, per-shard subgraphs). The caller fills the user side
/// of `storage` — `user_offsets` (num_users + 1), `user_adj` (item ids,
/// ascending within each user), the aligned `user_clicks` — and the
/// external ids of both sides. This derives the rest: the item side as a
/// counting transpose filled in ascending user order (so it is sorted too),
/// the per-vertex and grand click totals, and both external-id lookup
/// tables, then adopts the storage without copying it.
BipartiteGraph BuildAdoptedGraph(std::shared_ptr<AdoptedStorage> storage);

}  // namespace ricd::graph

#endif  // RICD_GRAPH_ADOPTED_GRAPH_H_
