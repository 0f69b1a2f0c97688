// Workload D (sim_crash_n32): SimKvCluster at n=32 on the LogGP fabric
// (FabricParams::tcp_ib), dual digraph (plus::make_unreliable_builder),
// window W=4, heartbeat FD (10 ms period, 50 ms timeout). An open loop of
// 64 B puts at 20k ops/s runs on virtual time; one seeded server crashes
// mid-broadcast at the midpoint. Its clients fail over when their fallback
// contact delivers the view change that removes it, resubmitting every
// command not yet applied (exactly-once through the session table).
//
// Virtual-time results depend on the seed only; the run repeats the same
// scenario to fill --seconds and checks that every repetition reproduces
// them bit for bit.
#include <algorithm>
#include <memory>
#include <tuple>

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kN = 32;
constexpr double kRate = 20000;
constexpr std::size_t kValueBytes = 64;
constexpr std::uint64_t kKeys = 65536;
constexpr std::size_t kSessionsPerNode = 4;
constexpr std::size_t kWindow = 4;
constexpr DurationNs kVirtual = ms(400);
constexpr DurationNs kDrainBudget = sec(2);
constexpr DurationNs kHarvestEvery = ms(10);
constexpr int kSetups = 31;
constexpr std::uint32_t kTracePeriod = 16;
constexpr std::size_t kTraceRounds = 4;  ///< sampled rounds merged

struct SimOp {
  TimeNs due = 0;
  std::uint32_t key = 0;
  std::uint16_t session = 0;
  std::uint8_t node = 0;
};

/// Everything --seed decides: arrivals, keys, contacts, and the crash.
struct Plan {
  std::vector<SimOp> ops;
  std::vector<std::vector<std::uint32_t>> session_ops;  ///< seq-1 -> op
  NodeId victim = 0;
  TimeNs t_crash = 0;
  std::size_t more_sends = 0;  ///< sends that still leave after the crash
};

Plan make_plan(std::uint64_t seed) {
  Plan p;
  Rng rng(seed);
  p.session_ops.resize(kN * kSessionsPerNode);
  double t = 0;
  for (;;) {
    t += rng.exp_gap_ns(kRate);
    if (t >= static_cast<double>(kVirtual)) break;
    SimOp op;
    op.due = static_cast<TimeNs>(t);
    op.node = static_cast<std::uint8_t>(rng.below(kN));
    op.session = static_cast<std::uint16_t>(op.node * kSessionsPerNode +
                                            rng.below(kSessionsPerNode));
    op.key = static_cast<std::uint32_t>(rng.below(kKeys));
    p.session_ops[op.session].push_back(static_cast<std::uint32_t>(p.ops.size()));
    p.ops.push_back(op);
  }
  p.victim = static_cast<NodeId>(rng.below(kN));
  p.t_crash = kVirtual / 2 + static_cast<TimeNs>(rng.below(ms(2)));
  p.more_sends = rng.below(3);
  return p;
}

smr::SimKvOptions cluster_options(std::uint64_t seed, bool traced) {
  smr::SimKvOptions o;
  o.cluster.n = kN;
  o.cluster.fabric = sim::FabricParams::tcp_ib();
  o.cluster.window = kWindow;
  o.cluster.fast_builder = plus::make_unreliable_builder();
  o.cluster.heartbeat_fd = true;
  o.cluster.fd_params.period = ms(10);
  o.cluster.fd_params.timeout = ms(50);
  o.cluster.seed = seed;
  if (traced) {
    o.cluster.recorder_capacity = std::size_t{1} << 15;
    o.cluster.trace_sample_period = kTracePeriod;
    o.cluster.trace_capacity = std::size_t{1} << 14;
  }
  return o;
}

struct RunOut {
  std::vector<double> vlat_ns;  ///< ops not due inside the outage window
  double outage_ns = 0;
  double virtual_ops_s = 0;  ///< applied ops per virtual second
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double cpu_ns = 0;   ///< driving thread CPU time, load + drain
  double wall_ns = 0;
  std::uint64_t events = 0;
  double setup_s = 0;
  std::uint64_t fingerprint = 0;  ///< hash of every virtual-time outcome
  Ledger ledger;
};

RunOut run_once(const Args& args, const Plan& plan, bool traced,
                Report& report) {
  RunOut out;
  std::unique_ptr<smr::SimKvCluster> owner;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    owner.reset();
    const std::int64_t t0 = now_ns();
    owner = std::make_unique<smr::SimKvCluster>(cluster_options(args.seed, traced));
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  out.setup_s = median(setups);
  smr::SimKvCluster& kv = *owner;
  sim::Simulator& sim = kv.sim();
  api::SimCluster& cluster = kv.cluster();

  const std::size_t nops = plan.ops.size();
  const std::size_t nsess = plan.session_ops.size();
  const NodeId target = static_cast<NodeId>((plan.victim + 1) % kN);
  const ValuePool pool(args.seed);

  std::vector<TimeNs> applied(nops, -1);
  std::vector<Round> round(nops, 0);
  std::vector<std::uint8_t> orig_node(nops, 0), retry_node(nops, 0);
  std::vector<std::uint64_t> orig_ctr(nops, 0), retry_ctr(nops, 0);
  std::vector<bool> retried(nops, false);
  std::vector<smr::Bytes> envelopes(nops);
  std::vector<double> call_ns;
  std::vector<std::uint64_t> ctr(kN, 0);
  std::vector<smr::KvSession> sessions;
  std::vector<NodeId> contact(nsess);
  std::vector<std::uint64_t> hw(nsess, 0);
  std::vector<std::vector<std::uint16_t>> observed_by(kN);
  for (std::size_t s = 0; s < nsess; ++s) {
    sessions.emplace_back(s + 1);
    contact[s] = static_cast<NodeId>(s / kSessionsPerNode);
    observed_by[contact[s]].push_back(static_cast<std::uint16_t>(s));
  }
  std::size_t applied_count = 0;
  bool failed_over = false;
  Round close_round = 0;
  TimeNs first_removed_t = -1;
  std::vector<core::RoundResult> target_log;  // traced: apply replay

  auto stamp = [&](NodeId who, const core::RoundResult& r, TimeNs t) {
    for (const std::uint16_t s : observed_by[who]) {
      const auto* e = kv.replica(who).sessions().find(s + 1);
      if (e == nullptr) continue;
      while (hw[s] < e->last_seq && hw[s] < plan.session_ops[s].size()) {
        const std::uint32_t op = plan.session_ops[s][hw[s]++];
        applied[op] = t;
        round[op] = r.round;
        ++applied_count;
      }
    }
  };
  auto failover = [&] {
    for (std::size_t s = 0; s < nsess; ++s) {
      if (contact[s] != plan.victim) continue;
      contact[s] = target;
      const auto* e = kv.replica(target).sessions().find(s + 1);
      const std::uint64_t done = e == nullptr ? 0 : e->last_seq;
      for (std::uint64_t q = done; q < sessions[s].last_seq(); ++q) {
        const std::uint32_t op = plan.session_ops[s][q];
        retried[op] = true;
        retry_node[op] = static_cast<std::uint8_t>(target);
        retry_ctr[op] = ctr[target]++;
        cluster.submit(target, core::Request::of_data(envelopes[op]));
      }
    }
    cluster.broadcast_now(target);
  };
  kv.on_deliver = [&](NodeId who, const core::RoundResult& r, TimeNs t) {
    stamp(who, r, t);
    if (!r.removed.empty() && first_removed_t < 0) first_removed_t = t;
    if (who == target && !failed_over &&
        std::find(r.removed.begin(), r.removed.end(), plan.victim) !=
            r.removed.end()) {
      failed_over = true;
      close_round = r.round;
      sim.schedule(0, failover);
    }
    if (traced && who == target) target_log.push_back(r);
  };
  // The victim's sessions are observed at the fallback contact from the
  // crash on (the victim applies nothing afterwards).
  sim.schedule_at(plan.t_crash, [&] {
    for (const std::uint16_t s : observed_by[plan.victim]) {
      observed_by[target].push_back(s);
    }
    observed_by[plan.victim].clear();
  });
  cluster.crash_after_sends(plan.victim, plan.t_crash, plan.more_sends);

  std::vector<StampLog> stamps(kN);
  TimeNs next_harvest = kHarvestEvery;
  std::int64_t harvest_cpu_ns = 0;  // benchmark-side work, not tracing cost
  auto harvest = [&](bool force) {
    if (!traced || (!force && sim.now() < next_harvest)) return;
    const std::int64_t h0 = thread_cpu_ns();
    next_harvest = sim.now() + kHarvestEvery;
    for (NodeId id = 0; id < kN; ++id) {
      if (const auto* rec = cluster.recorder(id)) stamps[id].harvest(*rec);
    }
    harvest_cpu_ns += thread_cpu_ns() - h0;
  };

  // ---- Load: submit + broadcast_now per op at its due time, nothing else.
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t wall0 = now_ns();
  for (std::size_t i = 0; i < nops; ++i) {
    const SimOp& op = plan.ops[i];
    out.events += sim.run_until(op.due);
    harvest(false);
    const NodeId node = contact[op.session];
    envelopes[i] = sessions[op.session].issue(
        smr::Command::put(key_bytes(op.key), pool.value(i, kValueBytes)));
    orig_node[i] = static_cast<std::uint8_t>(node);
    orig_ctr[i] = ctr[node]++;
    const std::int64_t c0 = traced ? now_ns() : 0;
    cluster.submit(node, core::Request::of_data(envelopes[i]));
    cluster.broadcast_now(node);
    if (traced) call_ns.push_back(static_cast<double>(now_ns() - c0));
  }
  // ---- Drain: nudge every live node until all ops are applied.
  const TimeNs drain_end = kVirtual + kDrainBudget;
  while (applied_count < nops && sim.now() < drain_end) {
    cluster.broadcast_all_now();
    out.events += sim.run_until(sim.now() + ms(1));
    harvest(false);
  }
  out.cpu_ns = static_cast<double>(thread_cpu_ns() - cpu0 - harvest_cpu_ns);
  out.wall_ns = static_cast<double>(now_ns() - wall0);
  harvest(true);

  // ---- Correctness.
  if (!kv.converged()) report.fail_check("replica state hashes differ");
  if (cluster.corrupt_delivered() != 0) report.fail_check("corrupt delivery");
  if (!failed_over) report.fail_check("the crash never produced a view change");
  auto order_key = [&](std::size_t i) {
    const bool via_retry = retried[i] && round[i] > close_round;
    return std::make_tuple(round[i], via_retry ? retry_node[i] : orig_node[i],
                           via_retry ? retry_ctr[i] : orig_ctr[i]);
  };
  std::map<std::uint32_t, std::size_t> last_put;
  for (std::size_t i = 0; i < nops; ++i) {
    if (applied[i] < 0) continue;
    auto [it, fresh] = last_put.emplace(plan.ops[i].key, i);
    if (!fresh && order_key(i) > order_key(it->second)) it->second = i;
  }
  Rng sample(args.seed ^ 0xc11e47u);
  const std::vector<NodeId> live = cluster.live_nodes();
  for (int s = 0; s < 256 && !last_put.empty(); ++s) {
    auto it = last_put.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(sample.below(last_put.size())));
    const smr::Bytes want = pool.value(it->second, kValueBytes);
    const NodeId id = live[sample.below(live.size())];
    const auto v = kv.kv(id).get_local(key_bytes(it->first));
    if (!v || *v != want) {
      report.fail_check("read-back mismatch on a sampled put");
      break;
    }
  }

  // ---- Outage and virtual latency. The outage is the longest stretch
  // after the crash in which no replica applied anything (an op due right
  // after the crash can still ride a round the victim's last sends
  // completed, so "first op due after the crash" ends it too early).
  std::vector<TimeNs> times;
  for (std::size_t i = 0; i < nops; ++i) {
    if (applied[i] >= 0) times.push_back(applied[i]);
  }
  std::sort(times.begin(), times.end());
  TimeNs resumed = plan.t_crash;
  DurationNs widest = 0;
  for (std::size_t k = 1; k < times.size(); ++k) {
    if (times[k] > plan.t_crash && times[k] - times[k - 1] > widest) {
      widest = times[k] - times[k - 1];
      resumed = times[k];
    }
  }
  const TimeNs outage = resumed - plan.t_crash;
  out.outage_ns = static_cast<double>(outage);
  out.attempted = nops;
  out.virtual_ops_s = times.empty() ? 0.0
                                    : static_cast<double>(times.size()) /
                                          to_sec(times.back());
  std::uint64_t fp = smr::kFnv64Offset;
  auto fold = [&fp](std::uint64_t x) { fp = (fp ^ x) * smr::kFnv64Prime; };
  fold(static_cast<std::uint64_t>(outage));
  for (std::size_t i = 0; i < nops; ++i) {
    fold(static_cast<std::uint64_t>(applied[i]));
    fold(round[i]);
    if (applied[i] < 0) {
      ++out.failed;
      continue;
    }
    const TimeNs due = plan.ops[i].due;
    if (due >= plan.t_crash && due <= plan.t_crash + outage) continue;
    out.vlat_ns.push_back(static_cast<double>(applied[i] - due));
  }
  out.fingerprint = fp;
  if (!traced) return out;

  // ---- Ledger.
  Ledger& l = out.ledger;
  OpSplit split;
  std::vector<double> fault_free_rounds;
  TimeNs first_suspect = -1;
  for (NodeId id = 0; id < kN; ++id) {
    const TimeNs fs = stamps[id].first_suspect();
    if (fs >= 0 && (first_suspect < 0 || fs < first_suspect)) first_suspect = fs;
    for (const auto& [r, rs] : stamps[id].rounds()) {
      if (rs.bcast >= 0 && rs.complete >= 0 && rs.complete < plan.t_crash) {
        fault_free_rounds.push_back(static_cast<double>(rs.complete - rs.bcast));
      }
    }
  }
  for (std::size_t i = 0; i < nops; ++i) {
    if (applied[i] < 0) continue;
    const TimeNs due = plan.ops[i].due;
    if (due >= plan.t_crash && due <= plan.t_crash + outage) continue;
    const bool via_retry = retried[i] && round[i] > close_round;
    const NodeId sub = via_retry ? retry_node[i] : orig_node[i];
    if (sub == plan.victim) continue;  // the victim's stamps stop at the crash
    const RoundStamps* rs = stamps[sub].find(round[i]);
    if (rs == nullptr || !rs->full()) continue;
    const double end = static_cast<double>(applied[i]);
    split.add(static_cast<double>(due), end, *rs,
              end - static_cast<double>(rs->delivered));
  }
  std::uint64_t lost = 0;
  for (const auto& s : stamps) lost += s.events_lost();
  report.info("ledger_ops_mapped", static_cast<double>(split.size()), "count");
  report.info("recorder_events_overwritten", static_cast<double>(lost), "count");
  split.to_ledger(l);
  l.set("fault.outage_ms", out.outage_ns / 1e6);
  if (first_suspect >= 0) {
    l.set("fd.detect_ms", static_cast<double>(first_suspect - plan.t_crash) / 1e6);
    if (first_removed_t >= 0) {
      l.set("core.viewchange_ms",
            static_cast<double>(first_removed_t - first_suspect) / 1e6);
    }
  }

  // Model column: fault-free rounds run over G_U; compare with the §4 LogP
  // depth + work bounds for the same n, d and fabric.
  const graph::Digraph gu = plus::make_unreliable_builder()(kN);
  std::size_t d = 0;
  for (NodeId v = 0; v < gu.order(); ++v) d = std::max(d, gu.out_degree(v));
  const std::size_t diam = graph::diameter(gu).value_or(0);
  const sim::FabricParams fabric = sim::FabricParams::tcp_ib();
  const core::LogP logp{static_cast<double>(fabric.latency),
                        static_cast<double>(fabric.overhead)};
  const double model_ns = core::logp_depth_ns(d, diam, logp) +
                          core::logp_work_bound_ns(kN, d, logp);
  const double fault_free = median(fault_free_rounds);
  l.set("model.round_ratio", model_ns > 0 ? fault_free / model_ns : 0.0);
  report.info("model_round_ns", model_ns, "ns");
  report.info("fault_free_round_us", fault_free / 1e3, "us");
  report.info("gu_degree", static_cast<double>(d), "count");
  report.info("gu_diameter", static_cast<double>(diam), "hops");

  const core::EngineStats es = cluster.aggregate_stats();
  const double nlive = static_cast<double>(live.size());
  const double rounds = static_cast<double>(kv.replica(target).next_round());
  ledger_from_engine(l, es, static_cast<double>(nops), rounds, nlive);
  std::vector<std::vector<obs::Span>> spans;
  for (NodeId id = 0; id < kN; ++id) {
    if (const auto* t = cluster.tracer(id)) spans.push_back(t->spans());
  }
  ledger_from_spans(l, spans, kTraceRounds);
  if (const auto* h = cluster.metrics().find_histogram("relay_hop_latency_ns")) {
    l.set("net.relay_hop_p50_us", h->snapshot().quantile(0.5) / 1e3);
  }
  l.set("sim.events_per_op",
        static_cast<double>(out.events) / static_cast<double>(nops));
  l.set("sim.wall_ns_per_event",
        out.events ? out.wall_ns / static_cast<double>(out.events) : 0.0);
  l.set("smr.dup_suppressed",
        static_cast<double>(kv.replica(target).duplicates_suppressed()));
  l.set("smr.apply_ns_per_op", measure_apply_ns_per_op(target_log));
  l.set("net.submit_call_ns", median(call_ns));
  std::size_t env_bytes = 0;
  for (const auto& e : envelopes) env_bytes += e.size();
  const CodecCost codec = measure_codec(
      static_cast<std::size_t>(
          std::max(1.0, static_cast<double>(nops) / std::max(rounds, 1.0))),
      env_bytes / std::max<std::size_t>(nops, 1), args.seed);
  l.set("core.encode_ns_per_kib", codec.encode_ns_per_kib);
  l.set("core.decode_ns_per_kib", codec.decode_ns_per_kib);
  l.set("graph.view_build_us",
        measure_view_build_us(kN - 1, core::make_default_graph_builder(),
                              plus::make_unreliable_builder()));
  return out;
}

double host_ops_s(const RunOut& r) {
  return r.cpu_ns > 0 ? static_cast<double>(r.attempted - r.failed) /
                            (r.cpu_ns / 1e9)
                      : 0.0;
}

}  // namespace

void run_sim_crash(const Args& args, Report& report) {
  const Plan plan = make_plan(args.seed);
  report.param("nodes", kN);
  report.param("rate_ops_s", kRate);
  report.param("value_bytes", kValueBytes);
  report.param("keys", static_cast<double>(kKeys));
  report.param("sessions_per_node", kSessionsPerNode);
  report.param("window", kWindow);
  report.param("virtual_s", to_sec(kVirtual));
  report.param("fd_period_ms", 10);
  report.param("fd_timeout_ms", 50);
  report.param("victim", plan.victim);
  report.param("t_crash_ms", to_ms(plan.t_crash));
  report.param("crash_more_sends", static_cast<double>(plan.more_sends));
  report.param("setups", kSetups);

  if (args.trace) {
    report.param("trace_sample_period", kTracePeriod);
    const RunOut plain = run_once(args, plan, false, report);
    const RunOut traced = run_once(args, plan, true, report);
    if (plain.fingerprint != traced.fingerprint) {
      report.fail_check("tracing changed the virtual-time outcome");
    }
    report.attempted = plain.attempted + traced.attempted;
    report.failed = plain.failed + traced.failed;
    Ledger l = traced.ledger;
    if (plain.cpu_ns > 0) {
      l.set("trace.overhead_frac", (traced.cpu_ns - plain.cpu_ns) / plain.cpu_ns);
    }
    emit_ledger(report, l);
    return;
  }

  // Repeat the identical scenario to fill the time (at least twice); every
  // repetition must reproduce the virtual-time outcome exactly.
  std::vector<RunOut> reps;
  const std::int64_t start = now_ns();
  do {
    reps.push_back(run_once(args, plan, false, report));
    if (reps.back().fingerprint != reps.front().fingerprint) {
      report.fail_check("repetitions of one seed diverged");
    }
  } while (report.correct && reps.size() < 16 &&
           (reps.size() < 2 ||
            static_cast<double>(now_ns() - start) / 1e9 *
                    (1.0 + 1.0 / static_cast<double>(reps.size())) <
                args.seconds));
  const RunOut& first = reps.front();
  std::vector<double> cpu_ops_s, setups, wall_ops_s;
  for (const RunOut& r : reps) {
    cpu_ops_s.push_back(host_ops_s(r));
    setups.push_back(r.setup_s);
    wall_ops_s.push_back(static_cast<double>(r.attempted - r.failed) /
                         (r.wall_ns / 1e9));
  }
  report.attempted = first.attempted;
  report.failed = first.failed;
  EndToEnd e;
  e.setup_s = median(setups);
  e.rss_mb = peak_rss_mb();
  e.lat_p50_us = quantile(first.vlat_ns, 0.5) / 1e3;
  e.ops_s = first.virtual_ops_s;
  e.applied_frac = 1.0 - static_cast<double>(first.failed) /
                             static_cast<double>(first.attempted);
  e.samples = first.vlat_ns.size();
  report.info("lat_p90_us", quantile(first.vlat_ns, 0.9) / 1e3, "us");
  report.info("lat_p99_us", quantile(first.vlat_ns, 0.99) / 1e3, "us");
  report.info("outage_ms", first.outage_ns / 1e6, "ms");
  report.info("failed_frac", 1.0 - e.applied_frac, "frac");
  report.info("repetitions", static_cast<double>(reps.size()), "count");
  // Host speed of the simulator: recorded, not gated (it follows the
  // shared host's load by +-20% between identical runs).
  report.info("sim_ops_per_wall_s", median(wall_ops_s), "1/s");
  report.info("sim_ops_per_cpu_s", median(cpu_ops_s), "1/s");
  emit_end_to_end(report, e);
}

}  // namespace perfbench
