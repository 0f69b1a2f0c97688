// Workloads A-C: three AllConcur nodes on localhost TCP, driven in-process.
//
// A (kv_client_tcp) uses the shipped client API, smr::KvNode::execute, in a
// closed loop. B and C mount a Replica(KvStore) in each TcpNode's DeliverFn
// and feed the nodes from one generator thread on an open-loop Poisson
// schedule: the generator only calls TcpNode::submit + broadcast_now per op,
// and every op is timed from its due time to its application at the
// contact replica.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 3;
constexpr int kSetups = 9;
constexpr std::uint32_t kTracePeriod = 64;
constexpr std::size_t kTraceRounds = 64;  ///< sampled rounds merged
constexpr double kLatencyLimitMs = 20.0;
constexpr double kRungGapNs = 250e6;
/// A rung ends early once its oldest unapplied op is this late.
constexpr std::int64_t kBacklogAbortNs = 500'000'000;

std::vector<NodeId> member_ids() {
  std::vector<NodeId> m(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) m[i] = static_cast<NodeId>(i);
  return m;
}

bool port_free(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

/// A listen-port block nobody holds (TcpNode aborts on a failed bind).
/// Ports are environment, not input, so they do not come from --seed.
std::uint16_t pick_base_port() {
  Rng rng(static_cast<std::uint64_t>(::getpid()) ^
          static_cast<std::uint64_t>(now_ns()));
  for (int attempt = 0; attempt < 500; ++attempt) {
    const auto base = static_cast<std::uint16_t>(20000 + rng.below(40000));
    bool ok = true;
    for (std::size_t i = 0; i < kNodes && ok; ++i) {
      ok = port_free(static_cast<std::uint16_t>(base + i));
    }
    if (ok) return base;
  }
  return 0;
}

net::TcpNodeOptions node_options(NodeId self, std::uint16_t base,
                                 bool traced) {
  net::TcpNodeOptions opt;
  opt.self = self;
  opt.members = member_ids();
  opt.base_port = base;
  // Heartbeats keep their 25 ms period, but a loop that is merely behind
  // (a capacity rung past the knee) must not be evicted as crashed: no
  // TCP workload crashes a node.
  opt.fd_params.timeout = sec(2);
  if (traced) {
    opt.recorder_capacity = std::size_t{1} << 20;
    opt.trace_sample_period = kTracePeriod;
    opt.trace_capacity = std::size_t{1} << 16;
  }
  return opt;
}

/// Event loop i runs on CPU i, the generator (or A's client) on CPU kNodes:
/// with nproc = 4 every busy thread owns a core, and no run depends on
/// where the scheduler happened to place its threads.
void pin_self(std::size_t cpu) { pin_thread(pthread_self(), cpu); }

/// Builds a cluster kSetups times on fresh ports (`setup_s` = the median
/// build-and-connect time) and keeps the last; null after a reported
/// failure.
template <typename Cluster, typename Make>
std::unique_ptr<Cluster> set_up(Report& report, double& setup_s, Make make) {
  std::unique_ptr<Cluster> cluster;
  std::vector<double> times;
  for (int s = 0; s < kSetups; ++s) {
    cluster.reset();
    const std::uint16_t base = pick_base_port();
    if (base == 0) {
      report.fail_check("no free localhost port block");
      return nullptr;
    }
    const std::int64_t t0 = now_ns();
    cluster = make(base);
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!cluster->connected()) {
      report.fail_check("TCP cluster did not connect");
      return nullptr;
    }
  }
  setup_s = median(times);
  return cluster;
}

/// Waits until every node reports the same round count and it stays put
/// for 50 ms (no round in flight anywhere).
template <typename RoundsFn>
bool quiesce(RoundsFn rounds_of) {
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  std::vector<std::uint64_t> last;
  std::int64_t stable_since = now_ns();
  while (now_ns() < deadline) {
    std::vector<std::uint64_t> cur;
    for (std::size_t i = 0; i < kNodes; ++i) cur.push_back(rounds_of(i));
    bool equal = true;
    for (auto r : cur) equal = equal && r == cur[0];
    if (!equal || cur != last) {
      last = cur;
      stable_since = now_ns();
    } else if (now_ns() - stable_since > 50'000'000) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

void add_stats(core::EngineStats& into, const core::EngineStats& s) {
  into.bcast_sent += s.bcast_sent;
  into.fail_sent += s.fail_sent;
  into.fwd_bwd_sent += s.fwd_bwd_sent;
  into.ubcast_sent += s.ubcast_sent;
  into.fallback_sent += s.fallback_sent;
  into.fast_rounds += s.fast_rounds;
  into.fallback_rounds += s.fallback_rounds;
  into.tracking_resets += s.tracking_resets;
  into.bytes_sent += s.bytes_sent;
  into.frames_encoded += s.frames_encoded;
  into.dropped_stale += s.dropped_stale;
  into.dropped_suspected += s.dropped_suspected;
  into.dropped_foreign += s.dropped_foreign;
  into.dropped_lost += s.dropped_lost;
  into.dropped_ahead += s.dropped_ahead;
  into.rounds_completed += s.rounds_completed;
}

/// Counter, trace and hop-histogram entries of the ledger from the nodes'
/// own observability (read after the nodes stopped). `ops` = commands the
/// run submitted, `rounds` = rounds one replica applied.
void ledger_from_nodes(Ledger& l, const std::vector<net::TcpNode*>& nodes,
                       double ops, double rounds) {
  core::EngineStats es;
  net::TcpNetStats ns;
  std::vector<std::vector<obs::Span>> spans;
  std::vector<double> hop;
  for (net::TcpNode* n : nodes) {
    add_stats(es, n->stats());
    const net::TcpNetStats s = n->net_stats();
    ns.sendmsg_calls += s.sendmsg_calls;
    ns.frames_sent += s.frames_sent;
    ns.partial_writes += s.partial_writes;
    ns.eagain_waits += s.eagain_waits;
    ns.rbuf_compactions += s.rbuf_compactions;
    spans.push_back(n->tracer().spans());
    const obs::Histogram* h = n->metrics().find_histogram("relay_hop_latency_ns");
    if (h != nullptr) hop.push_back(h->snapshot().quantile(0.5) / 1e3);
  }
  ledger_from_engine(l, es, ops, rounds, static_cast<double>(nodes.size()));
  ledger_from_spans(l, spans, kTraceRounds);
  l.set("net.relay_hop_p50_us", median(hop));
  if (ops <= 0) return;
  l.set("net.sendmsg_per_op", static_cast<double>(ns.sendmsg_calls) / ops);
  l.set("net.frames_per_sendmsg",
        ns.sendmsg_calls ? static_cast<double>(ns.frames_sent) /
                               static_cast<double>(ns.sendmsg_calls)
                         : 0.0);
  l.set("net.partial_writes_per_op",
        static_cast<double>(ns.partial_writes) / ops);
  l.set("net.eagain_waits_per_op", static_cast<double>(ns.eagain_waits) / ops);
  l.set("net.rbuf_compactions_per_op",
        static_cast<double>(ns.rbuf_compactions) / ops);
}

/// Layer probes that time the workload's own payload shape and overlay.
void ledger_from_probes(Ledger& l, std::size_t ops_per_round,
                        std::size_t request_bytes, std::uint64_t seed) {
  const CodecCost codec = measure_codec(ops_per_round, request_bytes, seed);
  l.set("core.encode_ns_per_kib", codec.encode_ns_per_kib);
  l.set("core.decode_ns_per_kib", codec.decode_ns_per_kib);
  l.set("graph.view_build_us",
        measure_view_build_us(kNodes - 1, core::make_default_graph_builder(),
                              core::GraphBuilder()));
}

// ===========================================================================
// A: closed loop on KvNode::execute
// ===========================================================================

struct ClientOp {
  std::int64_t t0 = 0;  ///< execute() called
  std::int64_t t1 = 0;  ///< execute() returned
  std::uint8_t contact = 0;
  bool measured = false;
  smr::Bytes envelope;  ///< traced phase: replayed for the apply timing
};

struct KvCluster {
  std::vector<std::unique_ptr<smr::KvNode>> nodes;
  bool up = true;

  KvCluster(std::uint16_t base, bool traced) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<smr::KvNode>(
          node_options(static_cast<NodeId>(i), base, traced)));
    }
    // A KvNode's loop thread inherits the affinity of the thread that
    // starts it: loop i runs on CPU i, the client on CPU kNodes.
    for (std::size_t i = 0; i < kNodes; ++i) {
      pin_self(i);
      nodes[i]->start();
    }
    pin_self(kNodes);
    for (auto& n : nodes) up = n->wait_connected(sec(10)) && up;
  }
  bool connected() const { return up; }
};

struct PhaseOut {
  std::vector<double> lat_ns;  ///< measured ops
  std::vector<double> lat_at;  ///< their start (due or call) times, ns
  double window_ns = 1e9;      ///< quantile window (see finish_e2e)
  double rss_mb = 0;  ///< peak RSS; 0 = take it at the end
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double ops_s = 0;
  double setup_s = 0;
  Ledger ledger;
};

PhaseOut client_phase(const Args& args, double seconds, bool traced,
                      Report& report) {
  constexpr std::size_t kHotKeys = 64;
  constexpr std::size_t kValueBytes = 64;
  constexpr double kPutFrac = 0.8;
  constexpr std::size_t kWarmupOps = 200;
  PhaseOut out;
  out.window_ns = 2e9;  // ~900 ops/s: two seconds hold >= 1000 samples

  const auto cluster = set_up<KvCluster>(report, out.setup_s, [&](std::uint16_t base) {
    return std::make_unique<KvCluster>(base, traced);
  });
  if (!cluster) return out;

  Rng rng(args.seed);
  const ValuePool pool(args.seed);
  smr::KvSession session(1);
  std::map<std::uint64_t, smr::Bytes> expected;  // key -> last put value
  std::vector<ClientOp> ops;
  std::size_t measured = 0;
  std::int64_t measure_start = 0;
  const std::int64_t deadline_budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t end = 0;
  for (std::uint64_t i = 0;; ++i) {
    if (i == kWarmupOps) {
      measure_start = now_ns();
      end = measure_start + deadline_budget;
    }
    if (i >= kWarmupOps && now_ns() >= end) break;
    const auto contact = static_cast<std::uint8_t>(rng.below(kNodes));
    const bool put = rng.unit() < kPutFrac;
    const std::uint64_t key = rng.below(kHotKeys);
    const smr::Command cmd =
        put ? smr::Command::put(key_bytes(key), pool.value(i, kValueBytes))
            : smr::Command::get(key_bytes(key));
    ClientOp op;
    op.contact = contact;
    op.measured = i >= kWarmupOps;
    if (traced) op.envelope = smr::KvSession(session).issue(cmd);
    op.t0 = now_ns();
    const auto resp = cluster->nodes[contact]->execute(session, cmd, sec(10));
    op.t1 = now_ns();
    ++out.attempted;
    if (!resp) {
      ++out.failed;
    } else if (put) {
      if (!resp->ok()) report.fail_check("put returned an error status");
      expected[key] = cmd.value;
    } else {
      const auto it = expected.find(key);
      const bool ok =
          it == expected.end()
              ? resp->status == smr::KvResponse::Status::kNotFound
              : resp->ok() && resp->has_value && resp->value == it->second;
      if (!ok) {
        report.fail_check("linearizable get did not return the last put");
      }
    }
    if (op.measured && resp) {
      out.lat_ns.push_back(static_cast<double>(op.t1 - op.t0));
      out.lat_at.push_back(static_cast<double>(op.t0));
      ++measured;
    }
    ops.push_back(std::move(op));
  }
  out.ops_s = static_cast<double>(measured) /
              (static_cast<double>(now_ns() - measure_start) / 1e9);

  // Correctness: barrier every replica to the tip, compare state hashes,
  // read a seeded sample of keys back from every replica.
  Round tip = 0;
  for (auto& n : cluster->nodes) tip = std::max(tip, n->next_round());
  for (auto& n : cluster->nodes) {
    if (tip > 0 && !n->read_barrier(tip - 1, sec(10))) {
      report.fail_check("read barrier timed out");
    }
  }
  if (!quiesce([&](std::size_t i) { return cluster->nodes[i]->next_round(); })) {
    report.fail_check("replicas did not reach a common round");
  }
  for (auto& n : cluster->nodes) {
    if (n->state_hash() != cluster->nodes[0]->state_hash()) {
      report.fail_check("replica state hashes differ");
    }
  }
  Rng sample(args.seed ^ 0xc11e47u);
  for (int s = 0; s < 32 && !expected.empty(); ++s) {
    auto it = expected.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(sample.below(expected.size())));
    for (auto& n : cluster->nodes) {
      const auto v = n->get_local(key_bytes(it->first));
      if (!v || *v != it->second) report.fail_check("read-back mismatch");
    }
  }
  for (auto& n : cluster->nodes) n->stop();

  if (!traced) return out;

  // ---- Ledger: map each op to its round through the contact's recorder:
  // the k-th payload-carrying own broadcast at a node is the k-th op
  // submitted there (one op in flight at a time).
  Ledger& l = out.ledger;
  std::vector<StampLog> stamps(kNodes);
  std::vector<std::vector<std::size_t>> ops_at(kNodes);
  for (std::size_t i = 0; i < ops.size(); ++i) ops_at[ops[i].contact].push_back(i);
  OpSplit split;
  std::uint64_t lost = 0;
  std::vector<net::TcpNode*> nodes;
  std::uint64_t dups = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    net::TcpNode& node = cluster->nodes[n]->transport();
    nodes.push_back(&node);
    dups += cluster->nodes[n]->duplicates_suppressed();
    stamps[n].harvest(node.recorder());
    lost += node.recorder().dropped();
    const auto& pb = stamps[n].payload_bcasts();
    const auto& mine = ops_at[n];
    if (pb.size() > mine.size()) continue;  // not one op per round: skip
    const std::size_t offset = mine.size() - pb.size();
    for (std::size_t k = 0; k < pb.size(); ++k) {
      const ClientOp& op = ops[mine[offset + k]];
      const RoundStamps* rs = stamps[n].find(pb[k]);
      if (!op.measured || rs == nullptr || !rs->full()) continue;
      const auto end = static_cast<double>(op.t1);
      split.add(static_cast<double>(op.t0), end, *rs,
                end - static_cast<double>(rs->delivered));
    }
  }
  report.info("ledger_ops_mapped", static_cast<double>(split.size()), "count");
  report.info("recorder_events_overwritten", static_cast<double>(lost), "count");
  split.to_ledger(l);
  ledger_from_nodes(l, nodes, static_cast<double>(out.attempted),
                    static_cast<double>(cluster->nodes[0]->next_round()));
  l.set("smr.dup_suppressed", static_cast<double>(dups));

  // Apply cost: the run's own commands, one per round as they were agreed.
  std::vector<core::RoundResult> rounds;
  std::size_t env_bytes = 0;
  for (const ClientOp& op : ops) {
    core::RoundResult r;
    r.view_size = kNodes;
    core::Delivery d;
    d.origin = op.contact;
    d.payload = core::pack_batch({core::Request::of_data(op.envelope)});
    d.bytes = d.payload ? d.payload->size() : 0;
    env_bytes += op.envelope.size();
    r.deliveries.push_back(std::move(d));
    rounds.push_back(std::move(r));
  }
  l.set("smr.apply_ns_per_op", measure_apply_ns_per_op(rounds));
  ledger_from_probes(l, 1, ops.empty() ? 64 : env_bytes / ops.size(), args.seed);
  return out;
}

// ===========================================================================
// B, C: open loop on TcpNode + benchmark-mounted Replica(KvStore)
// ===========================================================================

struct OpenParams {
  double rate = 0;             ///< fixed measuring rate, ops/s
  std::size_t value_bytes = 0;
  std::uint64_t keys = 0;
  double put_frac = 0;
  std::size_t sessions_per_node = 16;
  /// Warm-up: puts to every key in order (the store reaches its full size
  /// before timing starts), then this much mixed load.
  double warmup_s = 0.3;
  bool ladder = false;         ///< C: capacity ladder after the fixed rate
  double ladder_step = 1.25;
  std::size_t ladder_skip = 3;   ///< rungs below the first one run
  std::size_t ladder_rungs = 6;
};

struct OpenOp {
  std::int64_t due = 0;  ///< ns after the schedule start
  std::uint32_t key = 0;
  std::uint16_t session = 0;  ///< global session index
  std::uint8_t node = 0;
  std::uint8_t phase = 0;     ///< 0 warm-up, 1 fixed rate, 2+k ladder rung k
  bool put = false;
};

struct Phase {
  std::uint8_t tag = 0;
  double rate = 0;
  std::int64_t start = 0, end = 0;  ///< ns after the schedule start
  std::size_t first = 0, last = 0;  ///< op index range [first, last)
};

/// The whole seeded input: arrivals, keys, op kinds, contacts, sessions.
struct Schedule {
  std::vector<OpenOp> ops;
  std::vector<Phase> phases;
  std::vector<std::vector<std::uint32_t>> session_ops;  ///< seq-1 -> op
};

double warmup_seconds(const OpenParams& p) {
  return 1.05 * static_cast<double>(p.keys) / p.rate + p.warmup_s;
}

Schedule make_schedule(const OpenParams& p, double measure_s,
                       double rung_s, std::uint64_t seed) {
  Schedule s;
  Rng rng(seed);
  const std::size_t sessions = kNodes * p.sessions_per_node;
  s.session_ops.resize(sessions);
  std::vector<std::pair<double, double>> plan = {{p.rate, warmup_seconds(p)},
                                                 {p.rate, measure_s}};
  if (p.ladder) {
    double r = p.rate;
    for (std::size_t k = 0; k < p.ladder_skip + p.ladder_rungs; ++k) {
      r *= p.ladder_step;
      if (k >= p.ladder_skip) plan.emplace_back(r, rung_s);
    }
  }
  double t = 0;
  double start = 0;
  for (std::size_t ph = 0; ph < plan.size(); ++ph) {
    const auto [rate, dur] = plan[ph];
    Phase phase;
    phase.tag = static_cast<std::uint8_t>(ph);
    phase.rate = rate;
    phase.start = static_cast<std::int64_t>(start);
    phase.first = s.ops.size();
    const double stop = start + dur * 1e9;
    for (;;) {
      t += rng.exp_gap_ns(rate);
      if (t >= stop) break;
      OpenOp op;
      op.due = static_cast<std::int64_t>(t);
      op.node = static_cast<std::uint8_t>(rng.below(kNodes));
      op.session = static_cast<std::uint16_t>(
          op.node * p.sessions_per_node + rng.below(p.sessions_per_node));
      op.put = rng.unit() < p.put_frac;
      op.key = static_cast<std::uint32_t>(rng.below(p.keys));
      if (ph == 0) {  // warm-up writes every key once, in order
        op.put = true;
        op.key = static_cast<std::uint32_t>((s.ops.size() - phase.first) % p.keys);
      }
      op.phase = phase.tag;
      s.session_ops[op.session].push_back(
          static_cast<std::uint32_t>(s.ops.size()));
      s.ops.push_back(op);
    }
    // Capacity rungs are separated by an idle gap, so each rung starts
    // from an empty backlog and is judged on its own load.
    t = stop + (ph >= 1 ? kRungGapNs : 0.0);
    start = t;
    phase.end = static_cast<std::int64_t>(stop);
    phase.last = s.ops.size();
    s.phases.push_back(phase);
  }
  return s;
}

/// Per-op outcome, written by the node threads (applied) and the generator.
struct Outcome {
  explicit Outcome(std::size_t n)
      : applied(n), round(n, 0), late(n, 0), call(n, 0) {
    for (auto& a : applied) a.store(-1, std::memory_order_relaxed);
  }
  std::vector<std::atomic<std::int64_t>> applied;  ///< abs ns, -1 = not yet
  std::vector<Round> round;        ///< round the contact applied it in
  std::vector<std::int64_t> late;  ///< generator lateness vs due
  std::vector<std::int64_t> call;  ///< submit + broadcast_now duration
};

/// Three TcpNodes, each with a Replica(KvStore) mounted in its DeliverFn.
class ReplicaCluster {
 public:
  struct Member {
    explicit Member(std::unique_ptr<smr::KvStore> kv)
        : store(kv.get()), replica(std::move(kv)) {}
    smr::KvStore* store;  // owned by replica
    smr::Replica replica;
    std::unique_ptr<net::TcpNode> node;
    std::thread thread;
    std::vector<std::uint64_t> hw;  ///< applied high-water per own session
    std::int64_t apply_ns = 0;      ///< time inside Replica::on_round
    std::map<Round, std::int64_t> round_apply_ns;  ///< traced only
    std::atomic<std::uint64_t> applied{0};
  };

  ReplicaCluster(std::uint16_t base, bool traced, const OpenParams& p,
                 const Schedule& sched, Outcome& out) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto m = std::make_unique<Member>(std::make_unique<smr::KvStore>());
      m->hw.assign(p.sessions_per_node, 0);
      Member* mp = m.get();
      const std::size_t first_session = i * p.sessions_per_node;
      m->node = std::make_unique<net::TcpNode>(
          node_options(static_cast<NodeId>(i), base, traced),
          [mp, &sched, &out, first_session, traced](const core::RoundResult& r) {
            const std::int64_t t0 = now_ns();
            mp->replica.on_round(r);
            const std::int64_t t1 = now_ns();
            mp->apply_ns += t1 - t0;
            if (traced) mp->round_apply_ns[r.round] = t1 - t0;
            for (std::size_t k = 0; k < mp->hw.size(); ++k) {
              const auto* e = mp->replica.sessions().find(first_session + k + 1);
              if (e == nullptr) continue;
              const auto& seq_ops = sched.session_ops[first_session + k];
              std::uint64_t& hw = mp->hw[k];
              while (hw < e->last_seq && hw < seq_ops.size()) {
                const std::uint32_t op = seq_ops[hw++];
                out.round[op] = r.round;
                out.applied[op].store(t1, std::memory_order_release);
                mp->applied.fetch_add(1, std::memory_order_relaxed);
              }
            }
          });
      members_.push_back(std::move(m));
    }
    for (std::size_t i = 0; i < members_.size(); ++i) {
      net::TcpNode* n = members_[i]->node.get();
      members_[i]->thread = std::thread([n] { n->run(); });
      pin_thread(members_[i]->thread.native_handle(), i);
    }
    for (auto& m : members_) {
      connected_ = m->node->wait_connected(sec(10)) && connected_;
    }
  }
  ~ReplicaCluster() { stop(); }
  ReplicaCluster(const ReplicaCluster&) = delete;
  ReplicaCluster& operator=(const ReplicaCluster&) = delete;

  void stop() {
    for (auto& m : members_) {
      if (m->thread.joinable()) {
        m->node->stop();
        m->thread.join();
      }
    }
  }
  bool connected() const { return connected_; }
  Member& at(std::size_t i) { return *members_[i]; }
  std::uint64_t applied() const {
    std::uint64_t a = 0;
    for (const auto& m : members_) a += m->applied.load(std::memory_order_relaxed);
    return a;
  }

 private:
  std::vector<std::unique_ptr<Member>> members_;
  bool connected_ = true;
};

/// Sleeps until shortly before `t`, then spins: a sleeping thread wakes
/// tens of microseconds late on a VM, which would show as generator
/// lateness in every op's latency.
void wait_until(std::int64_t t) {
  constexpr std::int64_t kSpinNs = 300'000;
  for (;;) {
    const std::int64_t left = t - now_ns();
    if (left <= 0) return;
    if (left > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    } else {
      __builtin_ia32_pause();
    }
  }
}

/// For the main thread, which must not spin on a core the generator or an
/// event loop needs.
void sleep_until_ns(std::int64_t t) {
  const std::int64_t left = t - now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

struct OpenPhaseOut {
  PhaseOut base;
  double max_rate = 0;
  struct Rung {
    double rate = 0;          ///< offered, ops/s
    double p99_ms = 0;        ///< median of quarter-window p99s
    double applied_rate = 0;  ///< ops applied within the rung, per second
  };
  std::vector<Rung> rungs;
};

OpenPhaseOut open_phase(const Args& args, const OpenParams& p, double seconds,
                        bool traced, Report& report) {
  OpenPhaseOut res;
  PhaseOut& out = res.base;
  // C splits the time: half fixed rate, half ladder (rungs stop at the
  // knee; each rung is followed by an idle gap).
  const bool ladder = p.ladder;
  const double measure_s = ladder ? seconds * 0.5 : seconds;
  const double rung_s =
      ladder ? std::max(0.2, seconds * 0.5 / static_cast<double>(p.ladder_rungs) -
                                 kRungGapNs / 1e9)
             : 0;
  const Schedule sched = make_schedule(p, measure_s, rung_s, args.seed);
  const ValuePool pool(args.seed);
  Outcome oc(sched.ops.size());

  const auto cluster =
      set_up<ReplicaCluster>(report, out.setup_s, [&](std::uint16_t base) {
        return std::make_unique<ReplicaCluster>(base, traced, p, sched, oc);
      });
  if (!cluster) return res;

  // ---- Generator: one thread, submit + broadcast_now per op, nothing else.
  std::atomic<std::size_t> stop_at{sched.ops.size()};
  std::atomic<std::size_t> submitted{0};
  std::uint64_t env_bytes = 0;
  const std::int64_t t_start = now_ns() + 20'000'000;
  std::thread gen([&] {
    pin_self(kNodes);
    std::vector<smr::KvSession> sessions;
    for (std::size_t s = 0; s < sched.session_ops.size(); ++s) {
      sessions.emplace_back(s + 1);
    }
    for (std::size_t i = 0; i < sched.ops.size(); ++i) {
      if (i >= stop_at.load(std::memory_order_relaxed)) break;
      const OpenOp& op = sched.ops[i];
      const std::int64_t due = t_start + op.due;
      wait_until(due);
      const std::int64_t t0 = now_ns();
      const smr::Command cmd =
          op.put ? smr::Command::put(key_bytes(op.key), pool.value(i, p.value_bytes))
                 : smr::Command::get(key_bytes(op.key));
      smr::Bytes env = sessions[op.session].issue(cmd);
      env_bytes += env.size();
      net::TcpNode& node = *cluster->at(op.node).node;
      const std::int64_t t1 = now_ns();
      node.submit(core::Request::of_data(std::move(env)));
      node.broadcast_now();
      oc.call[i] = now_ns() - t1;
      oc.late[i] = t0 - due;
      submitted.store(i + 1, std::memory_order_release);
    }
  });

  // ---- C: evaluate each ladder rung shortly after it ends; stop the
  // generator at the first rung whose p99 misses the limit (an op not yet
  // applied at the evaluation counts as missing it, so a growing backlog
  // fails the rung too).
  if (ladder) {
    // Peak memory of the fixed-rate phase, before any rung overloads.
    sleep_until_ns(t_start + sched.phases[1].end + 150'000'000);
    out.rss_mb = peak_rss_mb();
    std::size_t oldest = sched.phases[2].first;  // first op not yet applied
    for (std::size_t ph = 2; ph < sched.phases.size(); ++ph) {
      const Phase& rung = sched.phases[ph];
      // A growing backlog ends the rung early: past the knee the queues
      // (heartbeats included) would otherwise grow for the whole rung.
      bool backlog = false;
      while (!backlog && now_ns() < t_start + rung.end + 150'000'000) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const std::size_t sub = submitted.load(std::memory_order_acquire);
        while (oldest < sub && oc.applied[oldest].load(std::memory_order_acquire) >= 0) {
          ++oldest;
        }
        backlog = oldest < sub && now_ns() - (t_start + sched.ops[oldest].due) >
                                      kBacklogAbortNs;
      }
      if (backlog) stop_at.store(submitted.load(std::memory_order_acquire));
      const std::size_t last = std::min(rung.last, submitted.load(std::memory_order_acquire));
      const std::int64_t now = now_ns();
      std::vector<double> lat, at;
      std::size_t done_in_rung = 0;
      for (std::size_t i = rung.first; i < last; ++i) {
        const std::int64_t a = oc.applied[i].load(std::memory_order_acquire);
        lat.push_back(static_cast<double>((a >= 0 ? a : now) -
                                          (t_start + sched.ops[i].due)));
        at.push_back(static_cast<double>(sched.ops[i].due));
        done_in_rung += a >= 0 && a <= t_start + rung.end;
      }
      // Median of the rung's quarter-window p99s: overload raises all four,
      // a single host stall only one.
      const double p99_ms =
          windowed_quantile(at, lat, 0.99,
                            static_cast<double>(rung.end - rung.start) / 4.0,
                            100) / 1e6;
      const double span_s =
          static_cast<double>(std::min(now, t_start + rung.end) - (t_start + rung.start)) / 1e9;
      res.rungs.push_back({rung.rate, p99_ms,
                           span_s > 0 ? static_cast<double>(done_in_rung) / span_s : 0.0});
      if (backlog || p99_ms > kLatencyLimitMs) {
        stop_at.store(submitted.load(std::memory_order_acquire));
        break;
      }
    }
  }
  gen.join();
  const std::size_t n_sub = submitted.load(std::memory_order_acquire);

  // ---- Drain: nudge every node until each submitted op is applied.
  const std::int64_t drain_deadline = now_ns() + 30'000'000'000;
  while (cluster->applied() < n_sub && now_ns() < drain_deadline) {
    for (std::size_t n = 0; n < kNodes; ++n) cluster->at(n).node->broadcast_now();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!quiesce([&](std::size_t i) {
        return cluster->at(i).node->rounds_completed();
      })) {
    report.fail_check("replicas did not reach a common round");
  }
  cluster->stop();

  // ---- Correctness: same round, same state hash, seeded read-back.
  for (std::size_t n = 1; n < kNodes; ++n) {
    if (cluster->at(n).replica.next_round() != cluster->at(0).replica.next_round() ||
        cluster->at(n).replica.state_hash() != cluster->at(0).replica.state_hash()) {
      report.fail_check("replicas diverged (round or state hash)");
    }
  }
  if (!report.correct) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      auto& m = cluster->at(n);
      std::uint64_t suspicions = 0;
      for (const auto& e : m.node->recorder().events()) {
        suspicions += e.kind == obs::EventKind::kSuspect;
      }
      std::fprintf(stderr,
                   "perfbench: node %zu next_round=%llu hash=%016llx "
                   "applied=%llu suspicions=%llu\n",
                   n, static_cast<unsigned long long>(m.replica.next_round()),
                   static_cast<unsigned long long>(m.replica.state_hash()),
                   static_cast<unsigned long long>(m.replica.commands_applied()),
                   static_cast<unsigned long long>(suspicions));
    }
  }
  // Agreed order of two puts: round, then origin id (the canonical delivery
  // order), then submission order at that origin.
  std::map<std::uint32_t, std::size_t> last_put;
  auto later = [&](std::size_t a, std::size_t b) {
    const auto ka = std::make_tuple(oc.round[a], sched.ops[a].node, a);
    const auto kb = std::make_tuple(oc.round[b], sched.ops[b].node, b);
    return ka > kb;
  };
  for (std::size_t i = 0; i < n_sub; ++i) {
    if (!sched.ops[i].put || oc.applied[i].load() < 0) continue;
    auto [it, fresh] = last_put.emplace(sched.ops[i].key, i);
    if (!fresh && later(i, it->second)) it->second = i;
  }
  Rng sample(args.seed ^ 0xc11e47u);
  for (int s = 0; s < 256 && !last_put.empty(); ++s) {
    auto it = last_put.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(sample.below(last_put.size())));
    const smr::Bytes want = pool.value(it->second, p.value_bytes);
    for (std::size_t n = 0; n < kNodes; ++n) {
      const auto v = cluster->at(n).store->get_local(key_bytes(it->first));
      if (!v || *v != want) {
        report.fail_check("read-back mismatch on a sampled put");
        s = 256;
        break;
      }
    }
  }

  // ---- End-to-end figures.
  out.attempted = n_sub;
  for (std::size_t i = 0; i < n_sub; ++i) {
    const std::int64_t a = oc.applied[i].load();
    if (a < 0) {
      ++out.failed;
    } else if (sched.ops[i].phase == 1) {
      out.lat_ns.push_back(static_cast<double>(a - (t_start + sched.ops[i].due)));
      out.lat_at.push_back(static_cast<double>(sched.ops[i].due));
    }
  }
  const Phase& fixed = sched.phases[1];
  out.ops_s = static_cast<double>(out.lat_ns.size()) /
              (static_cast<double>(fixed.end - fixed.start) / 1e9);
  std::vector<double> late;
  for (std::size_t i = fixed.first; i < std::min(fixed.last, n_sub); ++i) {
    late.push_back(static_cast<double>(oc.late[i]));
  }
  const double late_p99_us = quantile(late, 0.99) / 1e3;
  report.info("gen_late_p99_us", late_p99_us, "us");

  if (ladder) {
    // Capacity: the highest applied rate the ladder reached. Rungs below the
    // knee apply what is offered; the first rung past the limit (p99 over
    // 20 ms or a growing backlog) applies what the cluster can, which at a
    // sharp knee is a steadier estimate than interpolating p99.
    res.max_rate = out.ops_s;
    for (const auto& r : res.rungs) res.max_rate = std::max(res.max_rate, r.applied_rate);
    for (std::size_t k = 0; k < res.rungs.size(); ++k) {
      const std::string tag = "rung" + std::to_string(k);
      report.info(tag + "_rate", res.rungs[k].rate, "1/s");
      report.info(tag + "_p99_ms", res.rungs[k].p99_ms, "ms");
      report.info(tag + "_applied_rate", res.rungs[k].applied_rate, "1/s");
    }
  }

  if (!traced) return res;

  // ---- Ledger (fixed-rate ops of the traced phase).
  Ledger& l = out.ledger;
  std::vector<StampLog> stamps(kNodes);
  std::uint64_t lost = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    stamps[n].harvest(cluster->at(n).node->recorder());
    lost += cluster->at(n).node->recorder().dropped();
  }
  OpSplit split;
  std::vector<double> calls;
  for (std::size_t i = fixed.first; i < std::min(fixed.last, n_sub); ++i) {
    calls.push_back(static_cast<double>(oc.call[i]));
    const std::int64_t a = oc.applied[i].load();
    if (a < 0) continue;
    const OpenOp& op = sched.ops[i];
    const RoundStamps* rs = stamps[op.node].find(oc.round[i]);
    if (rs == nullptr || !rs->full()) continue;
    const auto& ra = cluster->at(op.node).round_apply_ns;
    const auto it = ra.find(oc.round[i]);
    split.add(static_cast<double>(t_start + op.due), static_cast<double>(a),
              *rs, it == ra.end() ? 0.0 : static_cast<double>(it->second));
  }
  report.info("ledger_ops_mapped", static_cast<double>(split.size()), "count");
  report.info("recorder_events_overwritten", static_cast<double>(lost), "count");
  split.to_ledger(l);
  l.set("gen.late_p99_us", late_p99_us);
  l.set("net.submit_call_ns", median(calls));

  std::vector<net::TcpNode*> nodes;
  std::int64_t apply_ns = 0;
  double applied_cmds = 0, dups = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    auto& m = cluster->at(n);
    nodes.push_back(m.node.get());
    apply_ns += m.apply_ns;
    applied_cmds += static_cast<double>(m.replica.commands_applied() +
                                        m.replica.duplicates_suppressed());
    dups += static_cast<double>(m.replica.duplicates_suppressed());
  }
  const double ops = static_cast<double>(n_sub);
  const double rounds = static_cast<double>(cluster->at(0).replica.next_round());
  ledger_from_nodes(l, nodes, ops, rounds);
  l.set("smr.apply_ns_per_op",
        applied_cmds > 0 ? static_cast<double>(apply_ns) / applied_cmds : 0.0);
  l.set("smr.dup_suppressed", dups);
  ledger_from_probes(
      l, static_cast<std::size_t>(std::max(1.0, std::round(ops / std::max(rounds, 1.0)))),
      n_sub ? env_bytes / n_sub : p.value_bytes, args.seed);
  return res;
}

void finish_e2e(Report& report, const PhaseOut& out, double ops_s) {
  EndToEnd e;
  e.setup_s = out.setup_s;
  e.rss_mb = out.rss_mb > 0 ? out.rss_mb : peak_rss_mb();
  // Quantiles per window (>= 1000 samples each), median over the windows:
  // a burst of host contention moves the windows it hits, not the figure.
  e.lat_p50_us = windowed_quantile(out.lat_at, out.lat_ns, 0.5,
                                   out.window_ns, 1000) / 1e3;
  // Tails are recorded, not gated: on a shared 4-vCPU host they move by
  // 50-100% between identical runs (README.md, "Why only the median").
  for (const auto& [name, q] : {std::pair{"lat_p90_us", 0.9}, {"lat_p99_us", 0.99}}) {
    report.info(name,
                windowed_quantile(out.lat_at, out.lat_ns, q, out.window_ns, 1000) / 1e3,
                "us");
  }
  report.info("lat_p99_run_us", quantile(out.lat_ns, 0.99) / 1e3, "us");
  e.ops_s = ops_s;
  e.applied_frac = out.attempted
                       ? 1.0 - static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted)
                       : 0.0;
  e.samples = out.lat_ns.size();
  report.info("failed_frac", 1.0 - e.applied_frac, "frac");
  emit_end_to_end(report, e);
}

/// Traced runs measure an untraced half and a traced half of the time on
/// fresh clusters; the p50 difference is the tracing overhead.
void finish_traced(Report& report, const PhaseOut& untraced,
                   const PhaseOut& traced) {
  Ledger l = traced.ledger;
  const double base = quantile(untraced.lat_ns, 0.5);
  if (base > 0) {
    l.set("trace.overhead_frac", (quantile(traced.lat_ns, 0.5) - base) / base);
  }
  report.info("untraced_lat_p50_us", base / 1e3, "us");
  report.info("traced_lat_p50_us", quantile(traced.lat_ns, 0.5) / 1e3, "us");
  emit_ledger(report, l);
}

}  // namespace

void run_kv_client_tcp(const Args& args, Report& report) {
  report.param("nodes", kNodes);
  report.param("hot_keys", 64);
  report.param("value_bytes", 64);
  report.param("put_frac", 0.8);
  report.param("warmup_ops", 200);
  report.param("setups", kSetups);
  if (!args.trace) {
    const PhaseOut out = client_phase(args, args.seconds, false, report);
    report.attempted = out.attempted;
    report.failed = out.failed;
    finish_e2e(report, out, out.ops_s);
    return;
  }
  report.param("trace_sample_period", kTracePeriod);
  const PhaseOut plain = client_phase(args, args.seconds / 2, false, report);
  const PhaseOut traced = client_phase(args, args.seconds / 2, true, report);
  report.attempted = plain.attempted + traced.attempted;
  report.failed = plain.failed + traced.failed;
  finish_traced(report, plain, traced);
}

void run_kv_open_tcp(const Args& args, Report& report, bool large) {
  OpenParams p;
  if (large) {
    // 4 KiB puts; 4096 keys keep each replica's store at 16 MiB.
    p.rate = 8000;
    p.value_bytes = 4096;
    p.keys = 4096;
    p.put_frac = 1.0;
    p.ladder = true;
  } else {
    p.rate = 50000;
    p.value_bytes = 64;
    p.keys = 65536;
    p.put_frac = 0.8;
  }
  report.param("nodes", kNodes);
  report.param("rate_ops_s", p.rate);
  report.param("value_bytes", static_cast<double>(p.value_bytes));
  report.param("keys", static_cast<double>(p.keys));
  report.param("put_frac", p.put_frac);
  report.param("sessions_per_node", static_cast<double>(p.sessions_per_node));
  report.param("warmup_s", warmup_seconds(p));
  report.param("setups", kSetups);
  if (p.ladder) {
    report.param("ladder_step", p.ladder_step);
    report.param("ladder_first_rate_ops_s",
                 p.rate * std::pow(p.ladder_step, static_cast<double>(p.ladder_skip + 1)));
    report.param("ladder_rungs", static_cast<double>(p.ladder_rungs));
    report.param("latency_limit_ms", kLatencyLimitMs);
  }
  if (!args.trace) {
    const OpenPhaseOut out = open_phase(args, p, args.seconds, false, report);
    report.attempted = out.base.attempted;
    report.failed = out.base.failed;
    finish_e2e(report, out.base, out.base.ops_s);
    if (large) report.info("max_rate_ops_s", out.max_rate, "1/s");
    return;
  }
  report.param("trace_sample_period", kTracePeriod);
  p.ladder = false;  // the ledger is taken at the fixed rate
  const OpenPhaseOut plain = open_phase(args, p, args.seconds / 2, false, report);
  const OpenPhaseOut traced = open_phase(args, p, args.seconds / 2, true, report);
  report.attempted = plain.base.attempted + traced.base.attempted;
  report.failed = plain.base.failed + traced.base.failed;
  finish_traced(report, plain.base, traced.base);
}

}  // namespace perfbench
