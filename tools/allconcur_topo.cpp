// allconcur_topo — deployment planning tool.
//
// Given a system size and a reliability target, prints the recommended
// overlay configuration (§4.4) and its analytic performance envelope
// (§4.1/§4.2), plus a comparison with the alternative overlay families.
//
//   $ allconcur_topo --n=200 --nines=6
//   $ allconcur_topo --n=64 --nines=4 --mttf-years=1 --delta-hours=12
//   $ allconcur_topo --n=32 --dual        # paired ⟨G_U, G_R⟩ overlays
#include <cstdio>
#include <string>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "core/logp_model.hpp"
#include "core/view.hpp"
#include "graph/binomial_graph.hpp"
#include "graph/connectivity.hpp"
#include "graph/fault_diameter.hpp"
#include "graph/gs_digraph.hpp"
#include "graph/kautz.hpp"
#include "graph/properties.hpp"
#include "graph/reliability.hpp"
#include "plus/dual_overlay.hpp"

using namespace allconcur;

namespace {

void describe(const std::string& name, const graph::Digraph& g,
              const graph::FailureModel& fm, Rng& rng) {
  const std::size_t n = g.order();
  const std::size_t d = g.degree();
  const auto diam = graph::diameter(g);
  const std::size_t k =
      n <= 128 ? graph::vertex_connectivity(g) : d;  // k = d for our families
  std::optional<std::size_t> delta_hat;
  if (k >= 1 && diam) {
    delta_hat = n <= 32 ? graph::fault_diameter_bound(g, k - 1)
                        : graph::fault_diameter_bound_sampled(g, k - 1,
                                                              200, rng);
  }
  const core::LogP tcp{12000.0, 1800.0};
  std::printf(
      "  %-10s n=%-5zu d=%-3zu D=%-2zu k=%-3zu δ̂_{k-1}=%-3s "
      "nines=%-6.2f msgs/srv=%-6zu work=%.0fus depth=%.0fus\n",
      name.c_str(), n, d, diam.value_or(0), k,
      delta_hat ? std::to_string(*delta_hat).c_str() : "-",
      graph::system_reliability_nines(n, k, fm),
      core::messages_per_server(n, d, 0),
      core::logp_work_bound_ns(n, d, tcp) / 1e3,
      core::logp_depth_ns(d, diam.value_or(0), tcp) / 1e3);
}

}  // namespace

namespace {

/// --dual: the AllConcur+ pairing table — the two overlays a dual-digraph
/// deployment routes, with the per-broadcast message cost of each path.
int print_dual_pairing(std::size_t n) {
  std::printf("AllConcur+ dual-digraph pairing at n=%zu\n", n);
  std::printf(
      "  (fast rounds relay along shortest-path trees of G_U, untracked; "
      "fallback re-executes\n   over G_R with full tracking; the FD "
      "monitors G_U ∪ G_R)\n\n");
  std::printf("%10s %6s %4s %4s %4s %6s %14s\n", "overlay", "n", "d", "D",
              "k", "D_f", "msgs/bcast");
  const auto p = plus::analyze_pairing(n, plus::make_unreliable_builder(),
                                       core::make_default_graph_builder());
  std::printf("%10s %6zu %4zu %4zu %4zu %6s %14zu\n", "G_U (fast)", p.n,
              p.u_degree, p.u_diameter.value_or(0), p.u_connectivity, "-",
              p.u_relays);
  std::printf("%10s %6zu %4zu %4zu %4zu %6zu %14zu\n", "G_R (rel.)", p.n,
              p.r_degree, p.r_diameter.value_or(0), p.r_connectivity,
              p.r_fault_diameter.value_or(0), p.r_edges);
  std::printf(
      "\nfast broadcast cost: %zu relays (%.1fx fewer than reliable's %zu); "
      "fault tolerance\ncomes entirely from the fallback path "
      "(f < k(G_R) = %zu).\n",
      p.u_relays,
      p.u_relays > 0 ? static_cast<double>(p.r_edges) /
                           static_cast<double>(p.u_relays)
                     : 0.0,
      p.r_edges, p.r_connectivity);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n = static_cast<std::size_t>(flags.get_int("n", 64));
  if (flags.get_bool("dual", false)) return print_dual_pairing(n);
  const double target = flags.get_double("nines", 6.0);
  graph::FailureModel fm;
  fm.mttf_hours = flags.get_double("mttf-years", 2.0) * 365.25 * 24.0;
  fm.delta_hours = flags.get_double("delta-hours", 24.0);
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));

  std::printf("AllConcur deployment plan: n=%zu, target %.1f nines "
              "(MTTF %.2fy, window %.0fh, p_f=%.5f)\n",
              n, target, fm.mttf_hours / (365.25 * 24.0), fm.delta_hours,
              fm.p_f());

  const auto d = graph::min_gs_degree_for_target(n, target, fm);
  if (!d) {
    std::printf("  no GS degree reaches the target at this size — add "
                "servers or relax the target.\n");
    return 1;
  }
  std::printf("\nrecommended: GS(%zu,%zu)\n", n, *d);
  describe("GS", graph::make_gs_digraph(n, *d), fm, rng);

  std::printf("\nalternatives at the same size:\n");
  describe("binomial", graph::make_binomial_graph(n), fm, rng);
  if ((n & (n - 1)) == 0 && n >= 4) {
    describe("hypercube", graph::make_hypercube(n), fm, rng);
  }
  // Nearest Kautz digraph with the recommended degree.
  for (std::size_t D = 1; D <= 6; ++D) {
    if (graph::kautz_order(*d, D) >= n) {
      const auto k = graph::make_kautz(*d, D);
      std::printf("  (nearest Kautz at degree %zu:)\n", *d);
      describe("kautz", k, fm, rng);
      break;
    }
  }
  std::printf(
      "\nliveness: tolerates up to %zu concurrent failures (f < k);\n"
      "rounds stay within the fault diameter with probability %.6f\n",
      *d - 1,
      core::prob_depth_within_fault_diameter(n, *d, 1800.0,
                                             fm.mttf_hours * 3600e9));
  return 0;
}
