#include "graph/properties.hpp"

#include <algorithm>
#include <deque>

#include "common/assert.hpp"

namespace allconcur::graph {

namespace {

std::vector<std::size_t> bfs(const Digraph& g, NodeId root, bool forward) {
  ALLCONCUR_ASSERT(root < g.order(), "vertex out of range");
  std::vector<std::size_t> dist(g.order(), kUnreachable);
  std::deque<NodeId> queue;
  dist[root] = 0;
  queue.push_back(root);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : forward ? g.successors(u) : g.predecessors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<std::size_t> bfs_distances(const Digraph& g, NodeId src) {
  return bfs(g, src, /*forward=*/true);
}

std::vector<std::vector<NodeId>> shortest_path_tree_children(const Digraph& g,
                                                             NodeId self) {
  // dist(·, x) for every x the rule reads — self, its successors, and
  // their predecessors (the candidates the tie-break compares against) —
  // by reverse BFS from x.
  std::vector<NodeId> targets{self};
  const auto add_target = [&targets](NodeId x) {
    if (std::find(targets.begin(), targets.end(), x) == targets.end()) {
      targets.push_back(x);
    }
  };
  for (NodeId s : g.successors(self)) {
    add_target(s);
    for (NodeId p : g.predecessors(s)) add_target(p);
  }
  std::vector<std::vector<std::size_t>> dist_to;
  dist_to.reserve(targets.size());
  for (NodeId x : targets) dist_to.push_back(bfs(g, x, /*forward=*/false));
  const auto dist = [&](NodeId j, NodeId x) {
    const auto at = std::find(targets.begin(), targets.end(), x);
    return dist_to[static_cast<std::size_t>(at - targets.begin())][j];
  };

  std::vector<std::vector<NodeId>> children(g.order());
  for (NodeId j = 0; j < g.order(); ++j) {
    const std::size_t level = dist(j, self);
    if (level == kUnreachable) continue;
    for (NodeId s : g.successors(self)) {
      if (dist(j, s) != level + 1) continue;
      const auto& preds = g.predecessors(s);
      const bool lowest = std::none_of(
          preds.begin(), preds.end(),
          [&](NodeId p) { return p < self && dist(j, p) == level; });
      if (lowest) children[j].push_back(s);
    }
  }
  return children;
}

std::optional<std::size_t> diameter(const Digraph& g) {
  std::size_t best = 0;
  for (NodeId src = 0; src < g.order(); ++src) {
    const auto dist = bfs_distances(g, src);
    for (NodeId v = 0; v < g.order(); ++v) {
      if (dist[v] == kUnreachable) return std::nullopt;
      best = std::max(best, dist[v]);
    }
  }
  return best;
}

std::optional<std::size_t> diameter_among(const Digraph& g,
                                          const std::vector<NodeId>& alive) {
  std::size_t best = 0;
  for (NodeId src : alive) {
    const auto dist = bfs_distances(g, src);
    for (NodeId v : alive) {
      if (dist[v] == kUnreachable) return std::nullopt;
      best = std::max(best, dist[v]);
    }
  }
  return best;
}

bool is_strongly_connected(const Digraph& g) {
  if (g.order() <= 1) return true;
  const auto fwd = bfs_distances(g, 0);
  if (std::count(fwd.begin(), fwd.end(), kUnreachable) > 0) return false;
  const auto bwd = bfs_distances(g.transpose(), 0);
  return std::count(bwd.begin(), bwd.end(), kUnreachable) == 0;
}

std::vector<NodeId> reachable_from(const Digraph& g, NodeId src) {
  const auto dist = bfs_distances(g, src);
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.order(); ++v) {
    if (dist[v] != kUnreachable) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> shortest_path(const Digraph& g, NodeId src, NodeId dst) {
  ALLCONCUR_ASSERT(src < g.order() && dst < g.order(), "vertex out of range");
  std::vector<NodeId> parent(g.order(), kInvalidNode);
  std::vector<bool> seen(g.order(), false);
  std::deque<NodeId> queue;
  seen[src] = true;
  queue.push_back(src);
  while (!queue.empty() && !seen[dst]) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.successors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  if (!seen[dst]) return {};
  std::vector<NodeId> path{dst};
  while (path.back() != src) path.push_back(parent[path.back()]);
  std::reverse(path.begin(), path.end());
  return path;
}

SccResult strongly_connected_components(const Digraph& g) {
  const std::size_t n = g.order();
  SccResult result;
  result.component.assign(n, 0);
  if (n == 0) return result;

  // Kosaraju: first pass computes finish order (iterative DFS), second pass
  // labels components on the transpose in reverse finish order.
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (visited[s]) continue;
    visited[s] = true;
    stack.emplace_back(s, 0);
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      const auto& succ = g.successors(u);
      if (idx < succ.size()) {
        const NodeId v = succ[idx++];
        if (!visited[v]) {
          visited[v] = true;
          stack.emplace_back(v, 0);
        }
      } else {
        order.push_back(u);
        stack.pop_back();
      }
    }
  }

  const Digraph t = g.transpose();
  std::vector<bool> labeled(n, false);
  std::size_t comp = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (labeled[*it]) continue;
    std::vector<NodeId> dfs{*it};
    labeled[*it] = true;
    while (!dfs.empty()) {
      const NodeId u = dfs.back();
      dfs.pop_back();
      result.component[u] = comp;
      for (NodeId v : t.successors(u)) {
        if (!labeled[v]) {
          labeled[v] = true;
          dfs.push_back(v);
        }
      }
    }
    ++comp;
  }
  result.count = comp;
  return result;
}

}  // namespace allconcur::graph
