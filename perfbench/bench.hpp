// Shared plumbing of the repository benchmark: arguments, seeded input
// generation, statistics, the result line, and the per-layer ledger that
// every workload fills from the program's public counters, flight
// recorder and tracer.
#pragma once

#include <pthread.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/allconcur.hpp"

namespace perfbench {

using namespace allconcur;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// ---------------------------------------------------------------------------
// Clocks and process resources
// ---------------------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
/// CPU time of the calling thread (steadier than wall time for the
/// single-threaded simulator on a shared host).
std::int64_t thread_cpu_ns();
/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();
/// Aggregate CPU ticks of the machine (/proc/stat), zero if unreadable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks host_cpu_ticks();
/// Restricts a thread to CPU `cpu` (modulo the CPUs present).
void pin_thread(pthread_t thread, std::size_t cpu);

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// splitmix64: every generated input (arrivals, keys, sizes, contacts,
/// crash victim and time) comes from one of these, seeded by --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Exponential inter-arrival gap (ns) of a Poisson process at `rate`/s.
  double exp_gap_ns(double rate) { return -std::log(1.0 - unit()) / rate * 1e9; }

 private:
  std::uint64_t s_;
};

/// Deterministic value bytes: the op index in the first 8 bytes (so every
/// put writes a distinct value), the rest a slice of a seeded pool.
class ValuePool {
 public:
  explicit ValuePool(std::uint64_t seed);
  smr::Bytes value(std::uint64_t op, std::size_t size) const;

 private:
  std::vector<std::uint8_t> pool_;
};

smr::Bytes key_bytes(std::uint64_t key);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (position q*(n-1)); 0 for an empty input.
double quantile(std::vector<double> v, double q);
/// Tail latency robust to one-off host stalls: samples are grouped into
/// windows of `window` by their start time `at`, and the median of the
/// per-window q-quantiles is returned (windows with fewer than
/// `min_samples` are skipped; all samples form one window if none
/// qualifies).
double windowed_quantile(const std::vector<double>& at,
                         const std::vector<double>& v, double q, double window,
                         std::size_t min_samples);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Result reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< the final line (e2e or per-layer set)
  std::vector<Metric> detail;   ///< extra figures, recorded per run
  std::vector<std::pair<std::string, double>> params;
  std::vector<std::string> errors;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void info(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  void param(std::string name, double value) {
    params.emplace_back(std::move(name), value);
  }
  void fail_check(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// Writes the run record line and, if the run is correct, the result line
/// (last line of stdout). Returns the process exit code.
int emit(const Args& args, const Report& report);

// ---------------------------------------------------------------------------
// End-to-end metrics (--trace 0)
// ---------------------------------------------------------------------------

struct EndToEnd {
  double setup_s = 0;     ///< median of the run's set-ups
  double rss_mb = 0;
  double lat_p50_us = 0;
  double ops_s = 0;       ///< the workload's throughput figure
  double applied_frac = 0;
  std::size_t samples = 0;
};
void emit_end_to_end(Report& r, const EndToEnd& e);

// ---------------------------------------------------------------------------
// Per-layer ledger (--trace 1). Every workload prints every entry; a layer
// the workload does not run reads 0 (see README.md for the table).
// ---------------------------------------------------------------------------

struct Ledger {
  std::map<std::string, double> v;
  void set(const std::string& name, double value) { v[name] = value; }
  double get(const std::string& name) const;
};
void emit_ledger(Report& r, const Ledger& l);

// ---------------------------------------------------------------------------
// Layer probes shared by the workloads (layers.cpp)
// ---------------------------------------------------------------------------

/// Lifecycle stamps of one round on one node, from its flight recorder.
struct RoundStamps {
  TimeNs bcast = -1;     ///< own kBcastSent
  TimeNs complete = -1;  ///< kComplete / kFastComplete
  TimeNs delivered = -1; ///< kDelivered
  bool full() const { return bcast >= 0 && complete >= 0 && delivered >= 0; }
};

/// One op's time split by its round's stamps at its contact node: batch
/// wait (start -> broadcast), round (-> complete), in-order wait
/// (-> delivered) and client wait (-> `end`). `last` is the ledger's fourth
/// part: the client wait, or the round's apply time where the benchmark
/// measures it directly.
class OpSplit {
 public:
  void add(double start, double end, const RoundStamps& rs, double last);
  /// Writes the four medians (us) and ledger.residual_frac.
  void to_ledger(Ledger& l) const;
  std::size_t size() const { return e2e_.size(); }

 private:
  std::vector<double> batch_, round_, inorder_, wait_, last_, e2e_;
};

/// Incrementally folds one node's recorder into per-round stamps. Call
/// harvest() often enough that the ring does not wrap between calls (or
/// once, after the run, with a ring sized for it).
class StampLog {
 public:
  void harvest(const obs::FlightRecorder& rec);
  const RoundStamps* find(Round r) const;
  const std::map<Round, RoundStamps>& rounds() const { return rounds_; }
  /// Rounds of this node's own payload-carrying broadcasts, in order.
  const std::vector<Round>& payload_bcasts() const { return payload_bcasts_; }
  TimeNs first_suspect() const { return first_suspect_; }
  std::uint64_t events_lost() const { return lost_; }

 private:
  std::map<Round, RoundStamps> rounds_;
  std::vector<Round> payload_bcasts_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t lost_ = 0;
  TimeNs first_suspect_ = -1;
};

/// Frame::make + decode cost of a batch shaped like the workload's own
/// (`ops` requests of `request_bytes` each), in ns per KiB of wire.
struct CodecCost {
  double encode_ns_per_kib = 0;
  double decode_ns_per_kib = 0;
};
CodecCost measure_codec(std::size_t ops, std::size_t request_bytes,
                        std::uint64_t seed);

/// Median time to build a core::View at `n` members with the given
/// builders, in microseconds.
double measure_view_build_us(std::size_t n, const core::GraphBuilder& builder,
                             const core::GraphBuilder& fast_builder);

/// Per-hop split (`TraceMerge::breakdown`, per hop, us) and measured depth
/// from the spans of at most `max_rounds` sampled rounds, evenly spaced
/// over the run (span times are the deployment clock: monotonic on TCP,
/// virtual on the sim). The breakdown pairs every recv span with its send
/// by scanning all send spans (O(recv x send)), so an unbounded merge of a
/// 32-node run does not finish in a benchmark's time budget.
void ledger_from_spans(Ledger& l,
                       const std::vector<std::vector<obs::Span>>& per_node,
                       std::size_t max_rounds);

/// Engine counters summed over nodes; `ops` = commands the run applied,
/// `rounds` = rounds one replica applied.
void ledger_from_engine(Ledger& l, const core::EngineStats& s, double ops,
                        double rounds, double nodes);

/// Times Replica::on_round over `rounds` on a fresh KvStore replica (the
/// workload's own deliveries); ns per applied command.
double measure_apply_ns_per_op(const std::vector<core::RoundResult>& rounds);

}  // namespace perfbench
