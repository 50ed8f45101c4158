// perfbench: the end-to-end cluster benchmark.
//
// One run brings up the real master, slave and collector runners on node
// threads of this process, over the real transports, and feeds the master a
// seeded, pre-generated trace (WallOptions::input_trace). The master is the
// open-loop generator: it dispatches each tuple at the first epoch boundary
// at or after its timestamp, on the wall clock, whether or not the slaves
// keep up. The trace has three phases: a warm-up of one window (not
// measured), a paced phase at a fixed offered rate (latency), and a
// saturated phase at the trace's rate ceiling (capacity).
//
// Everything is measured from outside the program: a Transport decorator
// around every endpoint, an extra JoinSink per slave that stamps emission,
// and standalone drives of each layer's public functions.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "core/runner.h"
#include "join/sink.h"
#include "net/transport.h"
#include "tuple/tuple.h"

namespace perfbench {

using sjoin::Duration;
using sjoin::Time;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads and their inputs (workload.cpp)

enum class TransportKind { kInProc, kUnixSocket };

struct Workload {
  std::string name;
  sjoin::SystemConfig cfg;  // slaves, workers, window, epochs, keys, ...
  TransportKind transport = TransportKind::kInProc;
  double paced_rate = 0;    // tuples/s per stream, warm-up and paced phase
  double ceiling_rate = 0;  // tuples/s per stream, saturated phase
  double sat_share = 0;     // saturated phase, as a share of one run's seconds
};

/// The workload table; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Phase bounds on the trace timeline (us), each a multiple of t_dist.
/// Warm-up is (0, warm_end], paced (warm_end, paced_end], saturated
/// (paced_end, sat_end]. Latency figures are taken per epoch of the paced
/// phase, so that a stall of the host moves the epochs it falls in rather
/// than the whole run's figures.
struct Phases {
  Time warm_end = 0;
  Time paced_end = 0;
  Time sat_end = 0;
  Duration epoch = 0;  // t_dist

  std::size_t PacedEpochs() const {
    return epoch > 0 ? static_cast<std::size_t>((paced_end - warm_end) / epoch) : 0;
  }
  /// Index among the paced epochs of a tuple time in (warm_end, paced_end].
  std::size_t PacedEpochOf(Time ts) const {
    return static_cast<std::size_t>((ts - warm_end - 1) / epoch);
  }
};

Phases PhasesFor(const Workload& w, double seconds);

/// Generates the workload's trace for `seed` through the program's own
/// generator (gen/MergedSource over a two-phase RateSchedule).
std::vector<sjoin::Rec> MakeTrace(const Workload& w, const Phases& ph,
                                  std::uint64_t seed);

/// The epoch boundary at which the master dispatches a tuple of time `ts`.
inline Time DispatchBoundary(Time ts, Duration t_dist) {
  const Time k = (ts + t_dist - 1) / t_dist;
  return (k < 1 ? 1 : k) * t_dist;
}

// ---------------------------------------------------------------------------
// Exactness oracle (workload.cpp)

/// Order-independent digest of one join output pair.
inline std::uint64_t PairHash(Time ts0, Time ts1, std::uint64_t key) {
  std::uint64_t h = sjoin::Mix64(key ^ 0x9E3779B97F4A7C15ULL);
  h = sjoin::Mix64(h ^ static_cast<std::uint64_t>(ts0));
  return sjoin::Mix64(h ^ (static_cast<std::uint64_t>(ts1) * 0xD6E8FEB86659FD93ULL));
}

/// Pair count plus a commutative digest (sum of PairHash, mod 2^64). Adding
/// or dropping any single pair changes the digest.
struct OutputDigest {
  std::uint64_t pairs = 0;
  std::uint64_t digest = 0;
  void Add(Time ts0, Time ts1, std::uint64_t key) {
    ++pairs;
    digest += PairHash(ts0, ts1, key);
  }
  void Merge(const OutputDigest& o) {
    pairs += o.pairs;
    digest += o.digest;
  }
  friend bool operator==(const OutputDigest&, const OutputDigest&) = default;
};

/// Streaming sliding-window equi-join over a timestamp-ordered trace: every
/// cross-stream pair with equal keys and |ts0 - ts1| <= window.
OutputDigest StreamingOracle(const std::vector<sjoin::Rec>& trace,
                             Duration window);

/// Digest of the trace bytes (the determinism self-test compares these).
std::uint64_t TraceDigest(const std::vector<sjoin::Rec>& trace,
                          std::size_t tuple_bytes);

/// StreamingOracle, cached on disk under `cache_dir` keyed by workload,
/// seed, phase bounds and trace digest.
OutputDigest CachedOracle(const std::string& cache_dir, const Workload& w,
                          const Phases& ph, std::uint64_t seed,
                          const std::vector<sjoin::Rec>& trace);

// ---------------------------------------------------------------------------
// Log-linear histogram (probe.cpp): 2^k octaves, 128 linear sub-buckets each
// (< 0.8% relative bucket width). Fixed storage: recording never allocates.

class LogLinearHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 32;  // values up to 2^38 ns (275 s)
  void Record(std::int64_t v);
  void Merge(const LogLinearHistogram& o);
  std::uint64_t Count() const { return count_; }
  /// Value at quantile q in [0, 1], interpolated inside its bucket.
  double Quantile(double q) const;

 private:
  static int Index(std::uint64_t v);
  static double Lower(int idx);
  static double Width(int idx);
  std::array<std::uint64_t, (kOctaves + 1) * kSub> buckets_{};
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Run-wide timing context shared by the probes (probe.cpp).

struct RunClock {
  /// steady_clock ns at the master's WallClock origin, learned from the
  /// master's kClockSync frame; 0 until then.
  std::atomic<std::int64_t> origin_ns{0};
  /// steady_clock ns of the first kTupleBatch frame the master sent.
  std::atomic<std::int64_t> first_batch_ns{0};
};

/// Per-slave emission sink: stamps every output on receipt, files it by the
/// phase of its newer input tuple, and folds it into the exactness digest.
/// Only the slave's join thread calls OnMatches.
class EmitSink final : public sjoin::JoinSink {
 public:
  EmitSink(const RunClock* clock, const Phases& ph, Duration t_dist);
  void OnMatches(const sjoin::Rec& probe, std::span<const Time> partner_ts,
                 Time produced_at) override;

  const RunClock* clock;
  Phases ph;
  Duration t_dist;

  OutputDigest all;                  // every output, for exactness
  double delay_sum_all_ns = 0;       // every output, for the self-check
  // Paced phase, by epoch (Phases::PacedEpochOf of the newer input tuple).
  std::vector<LogLinearHistogram> emit_epoch;  // emit latency per probe (ns)
  std::vector<double> delay_sum_epoch_ns;      // production delay per output
  std::vector<std::uint64_t> outputs_epoch;
  std::int64_t last_emit_sat_ns = 0;  // master-time ns
  std::uint64_t negative_emits = 0;   // stamps before the dispatch boundary
};

// ---------------------------------------------------------------------------
// Transport decorator (probe.cpp): counts frames and bytes per kind, and
// records the timings the metrics need. With `traced` every call becomes a
// span; otherwise only the batch receipt / post-batch pairs and the master's
// clock-sync and first-batch instants are stamped.

/// Message kinds the per-layer ledger reports.
inline constexpr std::array<sjoin::MsgType, 8> kLedgerKinds = {
    sjoin::MsgType::kTupleBatch,   sjoin::MsgType::kLoadReport,
    sjoin::MsgType::kResultStats,  sjoin::MsgType::kMetrics,
    sjoin::MsgType::kCheckpoint,   sjoin::MsgType::kCkptCmd,
    sjoin::MsgType::kCheckpointAck, sjoin::MsgType::kStateTransfer};
/// Ledger name of each kLedgerKinds entry.
inline constexpr std::array<const char*, 8> kLedgerNames = {
    "tuple_batch", "load_report", "result_stats", "metrics",
    "checkpoint",  "ckpt_cmd",    "ckpt_ack",     "state_transfer"};

struct Span {
  const char* name = "";
  std::uint32_t rank = 0;
  std::int64_t epoch = -1;  // epoch ordinal; shared by the spans of one epoch
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_start_ns = 0;  // master thread CPU time (traced only)
  std::int64_t cpu_end_ns = 0;
  std::uint8_t kind = 0;  // MsgType of the frame sent or received, 0: timeout
};

class ProbeTransport final : public sjoin::Transport {
 public:
  ProbeTransport(sjoin::Transport* inner, RunClock* clock, Duration t_dist,
                 bool traced, std::size_t expected_epochs);

  sjoin::Rank Self() const override { return inner_->Self(); }
  void Send(sjoin::Rank to, sjoin::Message msg) override;
  std::optional<sjoin::Message> Recv() override;
  std::optional<sjoin::Message> RecvFrom(sjoin::Rank from) override;
  sjoin::RecvResult RecvTimed(Duration timeout_us) override;
  sjoin::RecvResult RecvFromTimed(sjoin::Rank from,
                                  Duration timeout_us) override;

  /// Frames and wire bytes sent per message type (index = MsgType value).
  std::array<std::atomic<std::uint64_t>, 32> frames{};
  std::array<std::atomic<std::uint64_t>, 32> bytes{};

  /// Slaves: receipt of the k-th kTupleBatch and the send of the k-th
  /// post-batch kMetrics frame (steady ns), plus the batch's epoch.
  std::vector<std::int64_t> batch_recv_ns;
  std::vector<std::int64_t> batch_epoch;
  std::vector<std::int64_t> batch_done_ns;

  /// Traced runs: every Send/Recv call as a span, in call order per thread
  /// (slave comm and join threads both send, so spans are locked).
  std::vector<Span> spans;

 private:
  /// Records a receive that returned at `t1`; `m` is null on a timeout.
  void Received(const sjoin::Message* m, std::int64_t t0, std::int64_t t1,
                std::int64_t c0);
  std::int64_t ThreadCpuNs() const;

  sjoin::Transport* inner_;
  RunClock* clock_;
  Duration t_dist_;
  bool traced_;
  bool master_;
  std::mutex spans_mu_;
};

}  // namespace perfbench

namespace perfbench {

// ---------------------------------------------------------------------------
// One cluster run (cluster.cpp).

struct ClusterRun {
  sjoin::MasterSummary master;
  sjoin::CollectorSummary collector;
  RunClock clock;
  std::vector<std::unique_ptr<ProbeTransport>> probes;  // by rank
  std::vector<std::unique_ptr<EmitSink>> sinks;          // by slave index
  std::int64_t bringup_ns = 0;  // steady ns before the transport mesh
  double cpu_s = 0;             // process user + sys, bring-up to teardown
  std::int64_t rss_base_bytes = 0;  // resident size just before bring-up
  std::int64_t rss_peak_bytes = 0;  // peak resident size during the run
  bool hung = false;  // the wall deadline fired and forced a teardown
};

/// Brings the cluster up on node threads, runs `trace` through it, tears it
/// down. A run still going `deadline_s` after bring-up is torn down by
/// force (hub shutdown / socket shutdown) and marked hung; if the node
/// threads still do not finish, `on_stuck` is called and the process exits.
std::unique_ptr<ClusterRun> RunCluster(const Workload& w,
                                       const std::vector<sjoin::Rec>& trace,
                                       const Phases& ph, bool traced,
                                       double deadline_s,
                                       const std::function<void()>& on_stuck);

/// Resident set size of this process, from /proc/self/statm.
std::int64_t ResidentBytes();

/// While it lives, one SCHED_IDLE thread per CPU of the process spins, so
/// no virtual CPU halts: any other thread preempts them at once, and a
/// wakeup no longer pays the hypervisor's exit from an idle vCPU (0.1 to 1
/// ms here, depending on the host's load). Used for the set-up bring-ups,
/// whose sub-ms figure that latency otherwise doubled when the host got
/// busy.
class KeepCpusAwake {
 public:
  KeepCpusAwake();
  ~KeepCpusAwake();
  KeepCpusAwake(const KeepCpusAwake&) = delete;
  KeepCpusAwake& operator=(const KeepCpusAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

}  // namespace perfbench

namespace perfbench {

/// Standalone per-layer drives (layers.cpp); fills `m` by metric name.
void DriveLayers(const Workload& w, const Phases& ph,
                 const std::vector<sjoin::Rec>& trace,
                 std::map<std::string, double>& m);

/// The benchmark's own C++ self-tests (selftest.cpp); returns failures.
int RunSelfTests();

}  // namespace perfbench
