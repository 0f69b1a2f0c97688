#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

#include "bench.hpp"

namespace perfbench {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTicks host_cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

void pin_thread(pthread_t thread, std::size_t cpu) {
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % ncpu), &set);
  pthread_setaffinity_np(thread, sizeof(set), &set);
}

ValuePool::ValuePool(std::uint64_t seed) : pool_(1 << 20) {
  Rng rng(seed ^ 0x5eedu);
  for (std::size_t i = 0; i < pool_.size(); i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(pool_.data() + i, &w, 8);
  }
}

smr::Bytes ValuePool::value(std::uint64_t op, std::size_t size) const {
  smr::Bytes v(size);
  const std::size_t span = pool_.size() - size;
  const std::size_t at = static_cast<std::size_t>((op * 7919) % span);
  std::memcpy(v.data(), pool_.data() + at, size);
  std::memcpy(v.data(), &op, std::min<std::size_t>(8, size));
  return v;
}

smr::Bytes key_bytes(std::uint64_t key) {
  smr::Bytes k(8);
  std::memcpy(k.data(), &key, 8);
  return k;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b = *std::min_element(
      v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double windowed_quantile(const std::vector<double>& at,
                         const std::vector<double>& v, double q, double window,
                         std::size_t min_samples) {
  if (v.empty()) return 0;
  const double t0 = *std::min_element(at.begin(), at.end());
  std::map<std::int64_t, std::vector<double>> bins;
  for (std::size_t i = 0; i < v.size(); ++i) {
    bins[static_cast<std::int64_t>((at[i] - t0) / window)].push_back(v[i]);
  }
  std::vector<double> per_window;
  for (auto& [w, samples] : bins) {
    if (samples.size() >= min_samples) {
      per_window.push_back(quantile(std::move(samples), q));
    }
  }
  return per_window.empty() ? quantile(v, q) : median(per_window);
}

namespace {

double finite(double x) { return std::isfinite(x) ? x : 0.0; }

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), finite(ms[i].value),
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int emit(const Args& args, const Report& report) {
  if (!report.correct) {
    for (const auto& e : report.errors) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
    }
    return 1;
  }
  for (const auto& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  // Run record: the seed, the workload parameters and the extra figures.
  std::string rec = "{\"record\": {\"workload\": \"" + args.workload + "\"";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"seed\": %" PRIu64 ", \"seconds\": %.17g, \"trace\": %d",
                args.seed, args.seconds, args.trace ? 1 : 0);
  rec += buf;
  rec += ", \"params\": {";
  for (std::size_t i = 0; i < report.params.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", i ? ", " : "",
                  report.params[i].first.c_str(),
                  finite(report.params[i].second));
    rec += buf;
  }
  rec += "}, \"detail\": " + json_metrics(report.detail) + "}}";
  std::printf("%s\n", rec.c_str());
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              report.attempted, report.failed,
              json_metrics(report.metrics).c_str());
  std::fflush(stdout);
  return 0;
}

void emit_end_to_end(Report& r, const EndToEnd& e) {
  r.metric("lat_p50_us", e.lat_p50_us, "us");
  r.metric("ops_s", e.ops_s, "1/s");
  r.metric("applied_frac", e.applied_frac, "frac");
  r.metric("rss_mb", e.rss_mb, "MB");
  r.metric("setup_s", e.setup_s, "s");
  r.info("lat_samples", static_cast<double>(e.samples), "count");
}

namespace {

/// Ledger names, in output order, with units (BENCHMARK.json per_layer).
const std::vector<std::pair<std::string, std::string>>& ledger_schema() {
  static const std::vector<std::pair<std::string, std::string>> kSchema = {
      {"smr.client_wait_us", "us"},
      {"smr.apply_ns_per_op", "ns/op"},
      {"smr.dup_suppressed", "count"},
      {"core.batch_wait_us", "us"},
      {"core.round_us", "us"},
      {"core.inorder_wait_us", "us"},
      {"core.ops_per_round", "ops/round"},
      {"core.msgs_per_op", "msgs/op"},
      {"core.frames_per_op", "frames/op"},
      {"core.wire_bytes_per_op", "B/op"},
      {"core.encode_ns_per_kib", "ns/KiB"},
      {"core.decode_ns_per_kib", "ns/KiB"},
      {"core.hop_process_us", "us"},
      {"core.depth", "hops"},
      {"core.tracking_resets_per_round", "count/round"},
      {"core.drops", "count"},
      {"core.viewchange_ms", "ms"},
      {"plus.fast_round_frac", "frac"},
      {"plus.fallback_rounds", "count"},
      {"fd.detect_ms", "ms"},
      {"fault.outage_ms", "ms"},
      {"net.submit_call_ns", "ns"},
      {"net.sendmsg_per_op", "count/op"},
      {"net.frames_per_sendmsg", "count"},
      {"net.partial_writes_per_op", "count/op"},
      {"net.eagain_waits_per_op", "count/op"},
      {"net.rbuf_compactions_per_op", "count/op"},
      {"net.hop_queue_us", "us"},
      {"net.hop_serialize_us", "us"},
      {"net.hop_wire_us", "us"},
      {"net.relay_hop_p50_us", "us"},
      {"sim.events_per_op", "count/op"},
      {"sim.wall_ns_per_event", "ns"},
      {"graph.view_build_us", "us"},
      {"gen.late_p99_us", "us"},
      {"ledger.residual_frac", "frac"},
      {"trace.overhead_frac", "frac"},
      {"model.round_ratio", "ratio"},
  };
  return kSchema;
}

}  // namespace

double Ledger::get(const std::string& name) const {
  const auto it = v.find(name);
  return it == v.end() ? 0.0 : it->second;
}

void emit_ledger(Report& r, const Ledger& l) {
  for (const auto& [name, unit] : ledger_schema()) {
    r.metric(name, l.get(name), unit);
  }
  for (const auto& [name, value] : l.v) {
    bool known = false;
    for (const auto& s : ledger_schema()) known = known || s.first == name;
    if (!known) r.fail_check("ledger entry outside the schema: " + name);
  }
}

// ---------------------------------------------------------------------------

void StampLog::harvest(const obs::FlightRecorder& rec) {
  const std::uint64_t total = rec.total_recorded();
  if (total == next_seq_) return;
  for (const obs::Event& e : rec.events()) {
    if (e.seq < next_seq_) continue;
    if (e.seq > next_seq_) lost_ += e.seq - next_seq_;
    next_seq_ = e.seq + 1;
    switch (e.kind) {
      case obs::EventKind::kBcastSent: {
        RoundStamps& s = rounds_[e.round];
        if (s.bcast < 0) {
          s.bcast = e.t;
          if (e.a > 0) payload_bcasts_.push_back(e.round);  // a = payload bytes
        }
        break;
      }
      case obs::EventKind::kComplete:
      case obs::EventKind::kFastComplete: {
        RoundStamps& s = rounds_[e.round];
        if (s.complete < 0) s.complete = e.t;
        break;
      }
      case obs::EventKind::kDelivered:
        rounds_[e.round].delivered = e.t;
        break;
      case obs::EventKind::kSuspect:
        if (first_suspect_ < 0) first_suspect_ = e.t;
        break;
      default:
        break;
    }
  }
  next_seq_ = total;
}

void OpSplit::add(double start, double end, const RoundStamps& rs,
                  double last) {
  const auto bcast = static_cast<double>(rs.bcast);
  const auto complete = static_cast<double>(rs.complete);
  const auto delivered = static_cast<double>(rs.delivered);
  batch_.push_back(bcast - start);
  round_.push_back(complete - bcast);
  inorder_.push_back(delivered - complete);
  wait_.push_back(end - delivered);
  last_.push_back(last);
  e2e_.push_back(end - start);
}

void OpSplit::to_ledger(Ledger& l) const {
  l.set("core.batch_wait_us", median(batch_) / 1e3);
  l.set("core.round_us", median(round_) / 1e3);
  l.set("core.inorder_wait_us", median(inorder_) / 1e3);
  l.set("smr.client_wait_us", median(wait_) / 1e3);
  const double e2e = median(e2e_);
  if (e2e > 0) {
    l.set("ledger.residual_frac",
          (e2e - median(batch_) - median(round_) - median(inorder_) -
           median(last_)) / e2e);
  }
}

const RoundStamps* StampLog::find(Round r) const {
  const auto it = rounds_.find(r);
  return it == rounds_.end() ? nullptr : &it->second;
}

namespace {
volatile std::size_t codec_sink = 0;
}  // namespace

CodecCost measure_codec(std::size_t ops, std::size_t request_bytes,
                        std::uint64_t seed) {
  const ValuePool pool(seed);
  std::vector<core::Request> reqs;
  for (std::size_t i = 0; i < std::max<std::size_t>(ops, 1); ++i) {
    reqs.push_back(core::Request::of_data(pool.value(i, request_bytes)));
  }
  const core::Payload payload = core::pack_batch(reqs);
  const core::Message msg = core::Message::bcast(7, 1, payload);
  const double kib = static_cast<double>(msg.wire_size()) / 1024.0;

  CodecCost c;
  std::vector<double> enc, dec;
  std::vector<std::uint8_t> wire;
  for (int rep = 0; rep < 7; ++rep) {
    std::size_t iters = 0;
    const std::int64_t t0 = now_ns();
    std::size_t sink = 0;
    while (now_ns() - t0 < 3'000'000) {
      const core::FrameRef f = core::Frame::make(msg);
      sink += f->header()[0];
      ++iters;
    }
    enc.push_back(static_cast<double>(now_ns() - t0) /
                  static_cast<double>(iters) / kib);
    wire = core::Frame::make(msg)->to_bytes();
    iters = 0;
    const std::int64_t t1 = now_ns();
    while (now_ns() - t1 < 3'000'000) {
      const auto m = core::decode(wire);
      sink += m ? m->payload_bytes : 0;
      ++iters;
    }
    dec.push_back(static_cast<double>(now_ns() - t1) /
                  static_cast<double>(iters) / kib);
    codec_sink = sink;  // the loops' results stay observable
  }
  c.encode_ns_per_kib = median(enc);
  c.decode_ns_per_kib = median(dec);
  return c;
}

double measure_view_build_us(std::size_t n, const core::GraphBuilder& builder,
                             const core::GraphBuilder& fast_builder) {
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  std::vector<double> t;
  const std::int64_t start = now_ns();
  while (t.size() < 15 || (t.size() < 400 && now_ns() - start < 20'000'000)) {
    const std::int64_t t0 = now_ns();
    const core::View v(members, builder, fast_builder);
    t.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (v.size() != n) return 0;
  }
  return median(t);
}

void ledger_from_spans(Ledger& l,
                       const std::vector<std::vector<obs::Span>>& per_node,
                       std::size_t max_rounds) {
  std::vector<Round> rounds;
  for (const auto& spans : per_node) {
    for (const obs::Span& s : spans) rounds.push_back(s.round);
  }
  std::sort(rounds.begin(), rounds.end());
  rounds.erase(std::unique(rounds.begin(), rounds.end()), rounds.end());
  const std::size_t keep_n = std::min(max_rounds, rounds.size());
  std::vector<Round> keep;
  for (std::size_t k = 0; k < keep_n; ++k) {
    keep.push_back(rounds[k * rounds.size() / keep_n]);
  }
  obs::TraceMerge merged;
  for (const auto& spans : per_node) {
    std::vector<obs::Span> picked;
    for (const obs::Span& s : spans) {
      if (std::binary_search(keep.begin(), keep.end(), s.round)) {
        picked.push_back(s);
      }
    }
    merged.add_spans(picked);
  }
  const obs::TraceBreakdown b = merged.breakdown();
  if (b.hops > 0) {
    const double hops = static_cast<double>(b.hops);
    l.set("core.hop_process_us", b.process_ns / hops / 1e3);
    l.set("net.hop_queue_us", b.queue_ns / hops / 1e3);
    l.set("net.hop_serialize_us", b.serialize_ns / hops / 1e3);
    l.set("net.hop_wire_us", b.wire_ns / hops / 1e3);
  }
  l.set("core.depth", static_cast<double>(merged.empirical_depth()));
}

void ledger_from_engine(Ledger& l, const core::EngineStats& s, double ops,
                        double rounds, double nodes) {
  const double msgs = static_cast<double>(s.bcast_sent + s.fail_sent +
                                          s.fwd_bwd_sent + s.ubcast_sent +
                                          s.fallback_sent);
  if (ops > 0) {
    l.set("core.msgs_per_op", msgs / ops);
    l.set("core.frames_per_op", static_cast<double>(s.frames_encoded) / ops);
    l.set("core.wire_bytes_per_op", static_cast<double>(s.bytes_sent) / ops);
  }
  if (rounds > 0) {
    l.set("core.ops_per_round", ops / rounds);
    l.set("core.tracking_resets_per_round",
          static_cast<double>(s.tracking_resets) / (rounds * nodes));
  }
  l.set("core.drops",
        static_cast<double>(s.dropped_stale + s.dropped_suspected +
                            s.dropped_foreign + s.dropped_lost +
                            s.dropped_ahead));
  const double typed = static_cast<double>(s.fast_rounds + s.fallback_rounds);
  l.set("plus.fast_round_frac",
        typed > 0 ? static_cast<double>(s.fast_rounds) / typed : 0.0);
  l.set("plus.fallback_rounds", static_cast<double>(s.fallback_rounds) / nodes);
}

double measure_apply_ns_per_op(const std::vector<core::RoundResult>& rounds) {
  if (rounds.empty()) return 0;
  std::vector<double> per_op;
  for (int rep = 0; rep < 3; ++rep) {
    smr::Replica replica(std::make_unique<smr::KvStore>());
    std::int64_t busy = 0;
    Round next = 0;
    for (const core::RoundResult& r : rounds) {
      core::RoundResult copy = r;
      copy.round = next++;
      const std::int64_t t0 = now_ns();
      replica.on_round(copy);
      busy += now_ns() - t0;
    }
    const double cmds = static_cast<double>(replica.commands_applied() +
                                            replica.duplicates_suppressed());
    if (cmds > 0) per_op.push_back(static_cast<double>(busy) / cmds);
  }
  return median(per_op);
}

}  // namespace perfbench
