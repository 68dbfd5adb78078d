#include "graph/adopted_graph.h"

#include <utility>

#include "common/logging.h"
#include "graph/graph_builder.h"

namespace ricd::graph {

BipartiteGraph BuildAdoptedGraph(std::shared_ptr<AdoptedStorage> storage) {
  AdoptedStorage& s = *storage;
  const size_t num_u = s.user_ids.size();
  const size_t num_v = s.item_ids.size();
  const size_t num_e = s.user_adj.size();
  RICD_CHECK_EQ(s.user_offsets.size(), num_u + 1);
  RICD_CHECK_EQ(s.user_offsets.back(), num_e);
  RICD_CHECK_EQ(s.user_clicks.size(), num_e);

  s.user_lookup_sorted = GraphBuilder::ArgsortByExternalId(s.user_ids);
  s.item_lookup_sorted = GraphBuilder::ArgsortByExternalId(s.item_ids);

  s.item_offsets.assign(num_v + 1, 0);
  s.user_total_clicks.assign(num_u, 0);
  s.item_total_clicks.assign(num_v, 0);
  s.item_adj.resize(num_e);
  s.item_clicks.resize(num_e);
  s.total_clicks = 0;

  for (const VertexId v : s.user_adj) ++s.item_offsets[v + 1];
  for (size_t v = 0; v < num_v; ++v) s.item_offsets[v + 1] += s.item_offsets[v];

  std::vector<uint64_t> cursor(s.item_offsets.begin(), s.item_offsets.end() - 1);
  for (VertexId u = 0; u < num_u; ++u) {
    for (uint64_t e = s.user_offsets[u]; e < s.user_offsets[u + 1]; ++e) {
      const VertexId v = s.user_adj[e];
      const table::ClickCount clicks = s.user_clicks[e];
      s.item_adj[cursor[v]] = u;
      s.item_clicks[cursor[v]] = clicks;
      ++cursor[v];
      s.user_total_clicks[u] += clicks;
      s.item_total_clicks[v] += clicks;
      s.total_clicks += clicks;
    }
  }

  GraphSections sections;
  sections.user_offsets = s.user_offsets;
  sections.item_offsets = s.item_offsets;
  sections.user_adj = s.user_adj;
  sections.item_adj = s.item_adj;
  sections.user_clicks = s.user_clicks;
  sections.item_clicks = s.item_clicks;
  sections.user_total_clicks = s.user_total_clicks;
  sections.item_total_clicks = s.item_total_clicks;
  sections.user_ids = s.user_ids;
  sections.item_ids = s.item_ids;
  sections.user_lookup_sorted = s.user_lookup_sorted;
  sections.item_lookup_sorted = s.item_lookup_sorted;
  sections.total_clicks = s.total_clicks;
  return BipartiteGraph::AdoptExternal(sections, std::move(storage));
}

}  // namespace ricd::graph
