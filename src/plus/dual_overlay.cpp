#include "plus/dual_overlay.hpp"

#include <cstdio>

#include "graph/connectivity.hpp"
#include "graph/fault_diameter.hpp"
#include "graph/properties.hpp"

namespace allconcur::plus {

core::GraphBuilder make_unreliable_builder() {
  return [](std::size_t n) -> graph::Digraph {
    if (n <= 1) return graph::Digraph(n);
    if (n <= 2) return graph::make_complete(n);
    if (n < 4) return graph::make_ring(n);
    graph::Digraph g(n);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t a = 0; a < 2; ++a) {
        const std::size_t v = (2 * u + a) % n;
        // GB(n,2) has self-loops at u = 0 (a = 0) and u = n-1 (a = 1);
        // an overlay never wants them. Dropping them keeps the digraph
        // strongly connected for n >= 3: vertex 0 still reaches out via
        // 0 -> 1 and n-1 via n-1 -> n-2, and every vertex keeps an
        // in-edge from floor(v/2) or (n+v)/2.
        if (v == u) continue;
        g.add_edge_if_absent(static_cast<NodeId>(u),
                             static_cast<NodeId>(v));
      }
    }
    return g;
  };
}

OverlayPairing analyze_pairing(std::size_t n,
                               const core::GraphBuilder& fast_builder,
                               const core::GraphBuilder& reliable_builder,
                               std::size_t exact_up_to) {
  OverlayPairing p;
  p.n = n;
  const graph::Digraph g_u = fast_builder(n);
  const graph::Digraph g_r = reliable_builder(n);

  p.u_degree = g_u.degree();
  p.u_diameter = graph::diameter(g_u);
  p.u_connectivity = n <= exact_up_to && n >= 2
                         ? graph::vertex_connectivity(g_u)
                         : (n >= 2 ? 1 : 0);
  p.u_edges = g_u.edge_count();
  p.u_relays = n >= 1 ? n - 1 : 0;

  p.r_degree = g_r.degree();
  p.r_diameter = graph::diameter(g_r);
  p.r_connectivity =
      n <= exact_up_to && n >= 2 ? graph::vertex_connectivity(g_r)
                                 : g_r.degree();
  p.r_edges = g_r.edge_count();
  if (p.r_connectivity >= 1) {
    p.r_fault_diameter =
        graph::fault_diameter_bound(g_r, p.r_connectivity - 1);
  }
  return p;
}

std::string describe_pairing(const OverlayPairing& p) {
  char buf[192];
  std::snprintf(
      buf, sizeof(buf),
      "n=%zu  G_U: d=%zu D=%zu k=%zu msgs=%zu | G_R: d=%zu D=%zu k=%zu "
      "D_f=%zu msgs=%zu",
      p.n, p.u_degree, p.u_diameter.value_or(0), p.u_connectivity,
      p.u_relays, p.r_degree, p.r_diameter.value_or(0), p.r_connectivity,
      p.r_fault_diameter.value_or(0), p.r_edges);
  return std::string(buf);
}

}  // namespace allconcur::plus
