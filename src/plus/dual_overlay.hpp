// Paired ⟨G_U, G_R⟩ overlay construction for the dual-digraph fast path
// (AllConcur+, "A Dual Digraph Approach for Leaderless Atomic Broadcast").
//
// The two overlays trade fault tolerance for speed in opposite
// directions:
//   * G_R — the reliable digraph: GS(n,d) with the paper's Table 3
//     degrees (core::make_default_graph_builder), vertex-connectivity d,
//     bounded fault diameter. Message tracking and ⟨FAIL⟩ dissemination
//     run over it; it is what makes rounds with failures terminate.
//   * G_U — the unreliable digraph: minimal machinery for the failure-free
//     common case. Strong connectivity (k = 1) is all a fast round needs
//     — completion requires every message to reach everyone, and any
//     missing message triggers the fallback anyway — so G_U optimizes
//     degree and diameter instead: a binary generalized de Bruijn shape,
//     degree ≤ 2 and diameter ~log2 n. Fast rounds relay each message
//     along its origin's shortest-path tree of G_U (n-1 messages per
//     broadcast) where G_R floods every edge (n·d).
//
// analyze_pairing() computes the table the README and allconcur_topo
// print: per-overlay degree, diameter, connectivity, fault diameter, and
// the per-round message cost of the fast vs the fallback path.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/view.hpp"
#include "graph/digraph.hpp"

namespace allconcur::plus {

/// Builder for the unreliable overlay G_U: the binary generalized de
/// Bruijn digraph GB(n,2) (edges u -> 2u+a mod n) with self-loops
/// dropped — strongly connected, out-degree ≤ 2, diameter ≤ ⌈log2 n⌉+1.
/// Degenerate sizes (n < 4) fall back to the directed ring (n ≤ 2: the
/// complete digraph), mirroring the GS builder's degenerate handling.
core::GraphBuilder make_unreliable_builder();

/// One row of the pairing table for a given system size.
struct OverlayPairing {
  std::size_t n = 0;
  // G_U (fast path).
  std::size_t u_degree = 0;
  std::optional<std::size_t> u_diameter;
  std::size_t u_connectivity = 0;
  std::size_t u_edges = 0;          ///< |E(G_U)|
  /// Relay messages per fast broadcast: n-1, one per edge of the
  /// origin's shortest-path tree (fast rounds relay along trees).
  std::size_t u_relays = 0;
  // G_R (fallback path).
  std::size_t r_degree = 0;
  std::optional<std::size_t> r_diameter;
  std::size_t r_connectivity = 0;
  std::optional<std::size_t> r_fault_diameter;  ///< D_f(G_R, k-1) bound
  /// |E(G_R)| = relay messages per reliable broadcast (G_R floods).
  std::size_t r_edges = 0;
};

/// Builds both overlays for size n and measures the pairing. Connectivity
/// and fault diameter are exact for small n and degree-bounded estimates
/// above `exact_up_to` (they are Ω(n^3) computations).
OverlayPairing analyze_pairing(std::size_t n,
                               const core::GraphBuilder& fast_builder,
                               const core::GraphBuilder& reliable_builder,
                               std::size_t exact_up_to = 64);

/// Human-readable one-line summary of a pairing row.
std::string describe_pairing(const OverlayPairing& p);

}  // namespace allconcur::plus
