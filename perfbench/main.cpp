// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (README.md explains each choice):
//   kv_client_tcp  closed loop, one client on smr::KvNode::execute, n=3 TCP
//   kv_small_tcp   open loop, Poisson 50k ops/s of 64 B puts/gets, n=3 TCP
//   kv_large_tcp   open loop, 4 KiB puts at 8k ops/s plus a capacity ladder
//   sim_crash_n32  SimKvCluster n=32, dual digraph, W=4, one seeded crash
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger.
// Every run checks the replicas' outputs; a failed check exits non-zero
// without a result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <kv_client_tcp|kv_small_tcp|"
               "kv_large_tcp|sim_crash_n32> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return usage();

  perfbench::Report report;
  const perfbench::CpuTicks ticks0 = perfbench::host_cpu_ticks();
  if (args.workload == "kv_client_tcp") {
    perfbench::run_kv_client_tcp(args, report);
  } else if (args.workload == "kv_small_tcp") {
    perfbench::run_kv_open_tcp(args, report, /*large=*/false);
  } else if (args.workload == "kv_large_tcp") {
    perfbench::run_kv_open_tcp(args, report, /*large=*/true);
  } else if (args.workload == "sim_crash_n32") {
    perfbench::run_sim_crash(args, report);
  } else {
    return usage();
  }
  // Share of the VM's CPU time the hypervisor gave to others during the
  // run: the first thing to look at when a run reads slow.
  const perfbench::CpuTicks ticks1 = perfbench::host_cpu_ticks();
  if (ticks1.total > ticks0.total) {
    report.info("host_steal_frac",
                static_cast<double>(ticks1.steal - ticks0.steal) /
                    static_cast<double>(ticks1.total - ticks0.total),
                "frac");
  }
  return perfbench::emit(args, report);
}
