// The four benchmark workloads. Each fills `report` with the end-to-end
// metrics (args.trace == false) or the per-layer ledger (args.trace ==
// true), the run's parameters, and the outcome of its correctness check.
#pragma once

#include "bench.hpp"

namespace perfbench {

void run_kv_client_tcp(const Args& args, Report& report);
void run_kv_open_tcp(const Args& args, Report& report, bool large);
void run_sim_crash(const Args& args, Report& report);

}  // namespace perfbench
