// Structural digraph properties: distances, diameter, strong connectivity.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace allconcur::graph {

/// Unreachable marker for distance vectors.
inline constexpr std::size_t kUnreachable = static_cast<std::size_t>(-1);

/// BFS distances from src along successor edges.
std::vector<std::size_t> bfs_distances(const Digraph& g, NodeId src);

/// Children of `self` in every origin's shortest-path relay tree of g,
/// indexed by origin: s is a child of self in j's tree iff s is a
/// successor of self, dist(j,s) == dist(j,self)+1, and self is the
/// lowest-numbered predecessor of s at distance dist(j,self). The rule
/// reads distances only, so every vertex derives the same trees on its
/// own, and together the children lists form, per origin j, a spanning
/// arborescence of the vertices reachable from j with depth == distance.
/// Needs dist(j,x) only for x in {self} ∪ succ(self) ∪ pred(succ(self)):
/// O(d²·(n+E)) time, by reverse BFS from those targets.
std::vector<std::vector<NodeId>> shortest_path_tree_children(const Digraph& g,
                                                             NodeId self);

/// Longest shortest path (paper's D(G)); nullopt if g is not strongly
/// connected (some pair unreachable). `restrict_to` (optional) limits both
/// sources and targets to the given alive set — used for fault diameters.
std::optional<std::size_t> diameter(const Digraph& g);
std::optional<std::size_t> diameter_among(const Digraph& g,
                                          const std::vector<NodeId>& alive);

/// True iff every vertex can reach every other vertex.
bool is_strongly_connected(const Digraph& g);

/// Vertices reachable from src (including src).
std::vector<NodeId> reachable_from(const Digraph& g, NodeId src);

/// One shortest path src -> dst (inclusive), or empty if unreachable.
std::vector<NodeId> shortest_path(const Digraph& g, NodeId src, NodeId dst);

/// Strongly connected components (Kosaraju, the algorithm the paper's ⋄P
/// surviving-partition mechanism is modeled on). Returns component id per
/// vertex, ids in [0, count).
struct SccResult {
  std::vector<std::size_t> component;  ///< per-vertex component id
  std::size_t count = 0;
};
SccResult strongly_connected_components(const Digraph& g);

}  // namespace allconcur::graph
