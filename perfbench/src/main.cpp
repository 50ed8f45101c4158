// perfbench command line: one workload, one seed, one run of --seconds.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 1 when any run's output differs from the reference join.
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench.h"
#include "common/log.h"
#include "net/message.h"

namespace perfbench {
namespace {

/// Untraced runs per invocation; --seconds is shared among them.
constexpr int kRepeats = 5;
/// One-tuple bring-ups per invocation for the set-up time.
constexpr int kSetups = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
};

/// Both under the checkout root the benchmark runs from.
constexpr const char* kOutDir = ".perfbench_out";
constexpr const char* kCacheDir = ".perfbench_cache";

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n       perfbench --selftest\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else {
      Usage(("unknown flag " + k).c_str());
    }
  }
  if (!a.selftest && FindWorkload(a.workload) == nullptr) {
    Usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (a.seconds < 1 || a.seconds > 60) Usage("--seconds must be in [1, 60]");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Checks and end-to-end figures of one cluster run.

struct Eval {
  bool exact = false;        // output pairs == reference join
  bool hung = false;
  bool sustained = true;     // the paced phase kept up
  bool backlog = true;       // the saturated phase built a backlog
  bool self_check = true;    // stamped delay >= program delay, counts agree
  // Paced phase, per epoch: emit latency quantiles over its probes and the
  // production delay over its outputs (epochs without any are left out).
  std::vector<double> epoch_p50_ms, epoch_p99_ms, epoch_delay_ms;
  std::uint64_t probes_paced = 0;
  std::uint64_t min_epoch_probes = 0;
  std::uint64_t paced_batches = 0;
  double capacity_tps = 0;
  double cpu_us_per_tuple = 0;
  OutputDigest got;

  bool Failed() const {
    return !exact || hung || !sustained || !backlog || !self_check;
  }
};

Eval Evaluate(const ClusterRun& run, const Workload& w, const Phases& ph,
              const std::vector<sjoin::Rec>& trace, const OutputDigest& want) {
  Eval e;
  const Duration td = w.cfg.epoch.t_dist;
  const std::int64_t origin = run.clock.origin_ns.load();
  e.hung = run.hung;
  double delay_all_ns = 0;
  std::int64_t last_emit_sat = 0;
  std::uint64_t negative = 0;
  for (const auto& s : run.sinks) {
    e.got.Merge(s->all);
    delay_all_ns += s->delay_sum_all_ns;
    last_emit_sat = std::max(last_emit_sat, s->last_emit_sat_ns);
    negative += s->negative_emits;
  }
  e.exact = e.got == want;
  e.min_epoch_probes = ~std::uint64_t{0};
  for (std::size_t k = 0; k < ph.PacedEpochs(); ++k) {
    LogLinearHistogram emit;
    double delay_ns = 0;
    std::uint64_t outputs = 0;
    for (const auto& s : run.sinks) {
      emit.Merge(s->emit_epoch[k]);
      delay_ns += s->delay_sum_epoch_ns[k];
      outputs += s->outputs_epoch[k];
    }
    e.probes_paced += emit.Count();
    e.min_epoch_probes = std::min(e.min_epoch_probes, emit.Count());
    if (emit.Count() == 0) continue;
    e.epoch_p50_ms.push_back(emit.Quantile(0.5) / 1e6);
    e.epoch_p99_ms.push_back(emit.Quantile(0.99) / 1e6);
    e.epoch_delay_ms.push_back(delay_ns / static_cast<double>(outputs) / 1e6);
  }

  // Self-checks on the measurement itself: the benchmark's stamp is taken
  // after the program's produced_at, so its mean delay is never below the
  // program's; and both count the same outputs.
  const double ours_us =
      e.got.pairs > 0 ? delay_all_ns / static_cast<double>(e.got.pairs) / 1e3 : 0;
  if (ours_us + 1e-3 < run.collector.avg_delay_us ||
      run.collector.outputs != e.got.pairs || negative != 0) {
    e.self_check = false;
    std::printf("perfbench: self-check failed: stamped mean delay %.1f us vs "
                "program %.1f us, outputs %llu vs %llu, early stamps %llu\n",
                ours_us, run.collector.avg_delay_us,
                static_cast<unsigned long long>(e.got.pairs),
                static_cast<unsigned long long>(run.collector.outputs),
                static_cast<unsigned long long>(negative));
  }

  // Capacity: saturated-phase input over the time from the phase's first
  // dispatch boundary to its last output.
  std::uint64_t n_sat = 0;
  for (const sjoin::Rec& r : trace) n_sat += r.ts > ph.paced_end ? 1 : 0;
  const std::int64_t sat_start = (ph.paced_end + td) * 1000;
  const double span_s = static_cast<double>(last_emit_sat - sat_start) / 1e9;
  e.capacity_tps = span_s > 0 ? static_cast<double>(n_sat) / span_s : 0;
  // Backlog guard: if the cluster kept up with the ceiling, the last output
  // lands right after the last dispatch and capacity is not resolved.
  const std::int64_t sat_len = (ph.sat_end - ph.paced_end) * 1000;
  e.backlog = last_emit_sat - ph.sat_end * 1000 >= sat_len / 2;

  // Paced phase sustained: per slave, the lag from an epoch's boundary to
  // the end of its batch must not grow across the phase.
  for (sjoin::Rank s = 1; s <= w.cfg.num_slaves; ++s) {
    const ProbeTransport& p = *run.probes[s];
    std::vector<double> lags;
    const std::size_t k_end = std::min(p.batch_epoch.size(), p.batch_done_ns.size());
    for (std::size_t k = 0; k < k_end; ++k) {
      const Time b = p.batch_epoch[k] * td;
      if (b <= ph.warm_end || b > ph.paced_end) continue;
      lags.push_back(static_cast<double>(p.batch_done_ns[k] - origin - b * 1000));
    }
    e.paced_batches += lags.size();
    if (lags.size() < 8) {
      e.sustained = false;
      continue;
    }
    const std::size_t q = lags.size() / 4;
    double first = 0;
    double last = 0;
    for (std::size_t i = 0; i < q; ++i) {
      first += lags[i];
      last += lags[lags.size() - 1 - i];
    }
    if ((last - first) / static_cast<double>(q) >= static_cast<double>(td) * 1000 / 2) {
      e.sustained = false;
    }
  }

  e.cpu_us_per_tuple = run.cpu_s * 1e6 / static_cast<double>(trace.size());
  return e;
}

// ---------------------------------------------------------------------------
// Per-layer figures of a traced run.

void TracedLayerMetrics(const ClusterRun& run, const Workload& w,
                        const Phases& ph, std::map<std::string, double>& m,
                        const std::string& spans_path) {
  const Duration td = w.cfg.epoch.t_dist;
  const std::int64_t origin = run.clock.origin_ns.load();
  std::ofstream out(spans_path);
  std::size_t next_id = 0;
  auto emit = [&](const char* name, std::uint32_t rank, std::int64_t epoch,
                  std::int64_t s, std::int64_t e, std::int64_t parent) {
    out << "{\"id\":" << next_id << ",\"name\":\"" << name << "\",\"rank\":"
        << rank << ",\"epoch\":" << epoch << ",\"start_us\":"
        << static_cast<double>(s - origin) / 1e3 << ",\"end_us\":"
        << static_cast<double>(e - origin) / 1e3 << ",\"parent\":" << parent
        << "}\n";
    return static_cast<std::int64_t>(next_id++);
  };

  // Master: an epoch runs from its first batch send to the next epoch's.
  // send = inside Send, wait = inside the receives, other = the rest of the
  // master's busy time (routing, MasterBuffer, encode, bookkeeping), idle =
  // the sleep to the next boundary (wall minus thread CPU time of the gap
  // after the epoch's last transport call). The four close the epoch.
  const std::vector<Span>& ms = run.probes[0]->spans;
  std::vector<std::size_t> starts;
  std::int64_t cur = -1;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (ms[i].kind == static_cast<std::uint8_t>(sjoin::MsgType::kTupleBatch) &&
        std::strcmp(ms[i].name, "net.send") == 0 && ms[i].epoch != cur) {
      cur = ms[i].epoch;
      starts.push_back(i);
    }
  }
  std::vector<double> send_ms, wait_ms, other_ms, idle_ms, late_ms, batch_us;
  double closed = 0;
  double wall = 0;
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    const std::size_t a = starts[k];
    const std::size_t b = starts[k + 1];
    const std::int64_t s0 = ms[a].start_ns;
    const std::int64_t s1 = ms[b].start_ns;
    double send = 0;
    double wait = 0;
    const std::int64_t id = emit("core.epoch", 0, ms[a].epoch, s0, s1, -1);
    for (std::size_t i = a; i < b; ++i) {
      const double d = static_cast<double>(ms[i].end_ns - ms[i].start_ns);
      if (std::strcmp(ms[i].name, "net.send") == 0) {
        send += d;
        if (ms[i].kind == static_cast<std::uint8_t>(sjoin::MsgType::kTupleBatch)) {
          batch_us.push_back(d / 1e3);
        }
      } else {
        wait += d;
      }
      emit(ms[i].name, 0, ms[a].epoch, ms[i].start_ns, ms[i].end_ns, id);
    }
    const std::int64_t last_end = ms[b - 1].end_ns;
    const double inner = static_cast<double>(last_end - s0) - send - wait;
    const double gap = static_cast<double>(s1 - last_end);
    const double cpu_gap =
        static_cast<double>(ms[b].cpu_start_ns - ms[b - 1].cpu_end_ns);
    const double busy = std::clamp(cpu_gap, 0.0, gap);
    send_ms.push_back(send / 1e6);
    wait_ms.push_back(wait / 1e6);
    other_ms.push_back((inner + busy) / 1e6);
    idle_ms.push_back((gap - busy) / 1e6);
    late_ms.push_back(static_cast<double>(s0 - origin - ms[a].epoch * td * 1000) / 1e6);
    closed += send + wait + inner + gap;
    wall += static_cast<double>(s1 - s0);
  }
  m["core.master_send_ms"] = Quantile(send_ms, 0.5);
  m["core.master_wait_ms"] = Quantile(wait_ms, 0.5);
  m["core.master_other_ms"] = Quantile(other_ms, 0.5);
  m["core.master_idle_ms"] = Quantile(idle_ms, 0.5);
  m["core.dispatch_late_ms"] = Quantile(late_ms, 0.99);
  m["net.send_us_per_batch"] = Quantile(batch_us, 0.5);
  std::printf("perfbench: master ledger: %zu epochs, send+wait+other+idle = "
              "%.3f s of %.3f s epoch wall time\n",
              send_ms.size(), closed / 1e9, wall / 1e9);

  // Slaves: a batch is busy from when the join thread can take it (receipt,
  // or the previous batch's post-batch frame) to its own post-batch frame;
  // the time before that is inbox wait.
  double busy_frac = 0;
  std::vector<double> inbox_ms;
  for (sjoin::Rank s = 1; s <= w.cfg.num_slaves; ++s) {
    const ProbeTransport& p = *run.probes[s];
    const std::size_t n = std::min(p.batch_recv_ns.size(), p.batch_done_ns.size());
    double busy = 0;
    std::int64_t prev_done = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::int64_t start = std::max(p.batch_recv_ns[k], prev_done);
      const std::int64_t id = emit("core.slave_batch", s, p.batch_epoch[k],
                                   p.batch_recv_ns[k], p.batch_done_ns[k], -1);
      if (start > p.batch_recv_ns[k]) {
        emit("core.inbox_wait", s, p.batch_epoch[k], p.batch_recv_ns[k], start, id);
      }
      inbox_ms.push_back(static_cast<double>(start - p.batch_recv_ns[k]) / 1e6);
      const Time b = p.batch_epoch[k] * td;
      if (b > ph.warm_end && b <= ph.paced_end) {
        busy += static_cast<double>(p.batch_done_ns[k] - start);
      }
      prev_done = p.batch_done_ns[k];
    }
    busy_frac = std::max(
        busy_frac, busy / (static_cast<double>(ph.paced_end - ph.warm_end) * 1e3));
    for (const Span& sp : p.spans) {
      emit(sp.name, s, sp.epoch, sp.start_ns, sp.end_ns, -1);
    }
  }
  m["core.slave_busy_frac"] = busy_frac;
  m["core.inbox_wait_ms"] = Quantile(inbox_ms, 0.99);
  m["core.epochs"] = static_cast<double>(run.master.epochs);
  m["core.migrations"] = static_cast<double>(run.master.migrations);
  m["core.collector_delay_ms"] = run.collector.avg_delay_us / 1e3;

  // Frames and bytes per kind, counted at every sender.
  double total_bytes = 0;
  double metrics_bytes = 0;
  std::array<double, 32> frames{};
  std::array<double, 32> bytes{};
  for (const auto& p : run.probes) {
    for (std::size_t k = 0; k < 32; ++k) {
      frames[k] += static_cast<double>(p->frames[k].load());
      bytes[k] += static_cast<double>(p->bytes[k].load());
      total_bytes += static_cast<double>(p->bytes[k].load());
    }
  }
  for (std::size_t i = 0; i < kLedgerKinds.size(); ++i) {
    const auto k = static_cast<std::size_t>(kLedgerKinds[i]);
    m[std::string("net.frames.") + kLedgerNames[i]] = frames[k];
    m[std::string("net.bytes.") + kLedgerNames[i]] = bytes[k];
  }
  metrics_bytes = bytes[static_cast<std::size_t>(sjoin::MsgType::kMetrics)];
  m["obs.metrics_bytes_share"] = total_bytes > 0 ? metrics_bytes / total_bytes : 0;
}

// ---------------------------------------------------------------------------
// Repeats in child processes

bool WriteAll(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, std::size_t len) {
  auto* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Runs `fn` in a forked child process and returns the figures it wrote
/// back, or nothing when the child ended without reporting them. Every
/// repeat thus starts from the same process state -- a fresh heap, so the
/// resident-size baseline and peak do not depend on what earlier repeats
/// left in the allocator -- and has a CPU-time account of its own. The
/// caller must run no other threads.
std::optional<std::vector<double>> InChild(
    const std::function<std::vector<double>()>& fn) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(2);
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (pid == 0) {
    // Never outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(fds[0]);
    const std::vector<double> out = fn();
    std::fflush(stdout);
    const std::uint64_t n = out.size();
    const bool ok = WriteAll(fds[1], &n, sizeof(n)) &&
                    WriteAll(fds[1], out.data(), n * sizeof(double));
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  std::uint64_t n = 0;
  std::vector<double> out;
  bool ok = ReadAll(fds[0], &n, sizeof(n)) && n < (std::uint64_t{1} << 24);
  if (ok) {
    out.resize(n);
    ok = ReadAll(fds[0], out.data(), n * sizeof(double));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return out;
}

/// The figures of one untraced repeat, as they cross the pipe.
struct RepeatFigures {
  bool failed = true;
  bool exact = false;
  double capacity_tps = 0;
  double cpu_us_per_tuple = 0;
  double mem_mb = 0;
  double probes = 0;
  double min_epoch_probes = 0;
  double batches = 0;
  std::vector<double> epoch_p50_ms, epoch_p99_ms, epoch_delay_ms;

  std::vector<double> Flatten() const {
    std::vector<double> v = {failed ? 1.0 : 0.0, exact ? 1.0 : 0.0, capacity_tps,
                             cpu_us_per_tuple, mem_mb, probes, min_epoch_probes,
                             batches, static_cast<double>(epoch_p50_ms.size())};
    for (const auto* per_epoch : {&epoch_p50_ms, &epoch_p99_ms, &epoch_delay_ms}) {
      v.insert(v.end(), per_epoch->begin(), per_epoch->end());
    }
    return v;
  }
  static std::optional<RepeatFigures> From(const std::vector<double>& v) {
    constexpr std::size_t kHead = 9;
    if (v.size() < kHead) return std::nullopt;
    const auto epochs = static_cast<std::size_t>(v[8]);
    if (v.size() != kHead + 3 * epochs) return std::nullopt;
    RepeatFigures f;
    f.failed = v[0] != 0;
    f.exact = v[1] != 0;
    f.capacity_tps = v[2];
    f.cpu_us_per_tuple = v[3];
    f.mem_mb = v[4];
    f.probes = v[5];
    f.min_epoch_probes = v[6];
    f.batches = v[7];
    auto at = v.begin() + static_cast<std::ptrdiff_t>(kHead);
    for (auto* per_epoch : {&f.epoch_p50_ms, &f.epoch_p99_ms, &f.epoch_delay_ms}) {
      per_epoch->assign(at, at + static_cast<std::ptrdiff_t>(epochs));
      at += static_cast<std::ptrdiff_t>(epochs);
    }
    return f;
  }
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

const char* PerLayerUnit(const std::string& name) {
  static const std::map<std::string, const char*> units = {
      {"core.master_send_ms", "ms"},
      {"core.master_wait_ms", "ms"},
      {"core.master_other_ms", "ms"},
      {"core.master_idle_ms", "ms"},
      {"core.dispatch_late_ms", "ms"},
      {"core.buffer_ns_per_tuple", "ns"},
      {"core.slave_busy_frac", "ratio"},
      {"core.inbox_wait_ms", "ms"},
      {"core.collector_delay_ms", "ms"},
      {"net.send_us_per_batch", "us"},
      {"net.transport_us_per_batch", "us"},
      {"net.encode_ns_per_tuple", "ns"},
      {"net.decode_ns_per_tuple", "ns"},
      {"join.ns_per_tuple", "ns"},
      {"join.ns_per_tuple_serial", "ns"},
      {"join.comparisons_per_tuple", "ratio"},
      {"join.outputs_per_tuple", "ratio"},
      {"window.snapshot_ns_per_tuple", "ns"},
      {"window.restore_ns_per_tuple", "ns"},
      {"window.journal_ns_per_tuple", "ns"},
      {"window.state_mb", "MB"},
      {"obs.metrics_bytes_share", "ratio"},
      {"obs.trace_overhead_pct", "%"},
  };
  const auto it = units.find(name);
  if (it != units.end()) return it->second;
  return name.starts_with("net.bytes.") ? "bytes" : "count";
}

int Main(int argc, char** argv) {
  sjoin::SetLogLevel(sjoin::LogLevel::kError);
  const Args args = Parse(argc, argv);
  if (args.selftest) return RunSelfTests() == 0 ? 0 : 1;
  const Workload& w = *FindWorkload(args.workload);
  ::mkdir(kOutDir, 0755);
  ::mkdir(kCacheDir, 0755);

  // Inputs, made before any timing: the trace and its reference digest.
  const Phases ph = PhasesFor(w, args.seconds / kRepeats);
  Workload wl = w;
  wl.cfg.workload.seed = args.seed;
  const std::vector<sjoin::Rec> trace = MakeTrace(wl, ph, args.seed);
  const OutputDigest want = CachedOracle(kCacheDir, wl, ph, args.seed, trace);
  const Duration td = wl.cfg.epoch.t_dist;

  // Trace ceiling guards. The generator floors gaps at 1 us, so a stream
  // cannot exceed 1 M tuples/s and arrivals stop being Poisson well below
  // that: the paced rate must keep the floor off all but a few % of gaps.
  constexpr double kPoissonMaxRate = 50'000;  // per stream: < 5% of gaps floored
  std::uint64_t n_paced = 0;
  for (const sjoin::Rec& r : trace) n_paced += r.ts <= ph.paced_end ? 1 : 0;
  const double paced_measured =
      static_cast<double>(n_paced) / sjoin::UsToSeconds(ph.paced_end) / 2;
  if (wl.paced_rate > kPoissonMaxRate ||
      std::abs(paced_measured / wl.paced_rate - 1) > 0.05) {
    std::fprintf(stderr, "perfbench: trace outside the Poisson regime (paced "
                 "%.0f/s requested, %.0f/s generated)\n",
                 wl.paced_rate, paced_measured);
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d: %zu tuples "
              "(paced %.0f/s per stream to %.1f s, ceiling %.0f/s per stream to "
              "%.1f s), reference %llu pairs\n",
              wl.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, trace.size(), paced_measured,
              sjoin::UsToSeconds(ph.paced_end), wl.ceiling_rate,
              sjoin::UsToSeconds(ph.sat_end),
              static_cast<unsigned long long>(want.pairs));

  int attempted = 0;
  int failed = 0;
  bool correct = true;
  auto on_stuck = [&] {
    std::printf("perfbench: node threads did not finish after forced teardown\n");
    PrintResult(false, attempted + 1, failed + 1, {});
  };
  const double deadline =
      std::min(150.0, 3 * sjoin::UsToSeconds(ph.sat_end) + 20);

  auto report = [&](const ClusterRun& run, const Eval& e, bool traced) {
    std::printf("perfbench: %s run: %llu migrations, pairs %llu (want %llu) %s%s%s%s%s\n",
                traced ? "traced" : "untraced",
                static_cast<unsigned long long>(run.master.migrations),
                static_cast<unsigned long long>(e.got.pairs),
                static_cast<unsigned long long>(want.pairs),
                e.exact ? "exact" : "MISMATCH", e.hung ? ", HUNG" : "",
                e.sustained ? "" : ", paced backlog grew",
                e.backlog ? "" : ", capacity_tps unresolved (no backlog)",
                e.self_check ? "" : ", self-check failed");
  };
  auto run_main = [&](bool traced) {
    auto run = RunCluster(wl, trace, ph, traced, deadline, on_stuck);
    Eval e = Evaluate(*run, wl, ph, trace, want);
    ++attempted;
    if (e.Failed()) ++failed;
    if (!e.exact) correct = false;
    report(*run, e, traced);
    return std::make_pair(std::move(run), e);
  };

  if (args.trace == 0) {
    // Set-up time: short bring-ups whose trace is the first tuple alone, so
    // the first batch frame carries no epoch's worth of encoding; the median
    // is reported.
    const std::vector<sjoin::Rec> first_tuple(trace.begin(), trace.begin() + 1);
    const std::int64_t setup_t0 = NowNs();
    std::vector<double> setups, to_sync_ms, late_ms;
    auto awake = std::make_unique<KeepCpusAwake>();
    for (int i = 0; i < kSetups; ++i) {
      auto run = RunCluster(wl, first_tuple, ph, false, 30, on_stuck);
      ++attempted;
      if (run->hung) {
        ++failed;
        break;  // the deadline already spent; count it and move on
      }
      if (run->clock.first_batch_ns.load() == 0) {
        ++failed;
        continue;
      }
      setups.push_back(static_cast<double>(run->clock.first_batch_ns.load() -
                                           run->bringup_ns) / 1e9 -
                       sjoin::UsToSeconds(td));
      const std::int64_t origin = run->clock.origin_ns.load();
      to_sync_ms.push_back(static_cast<double>(origin - run->bringup_ns) / 1e6);
      late_ms.push_back(static_cast<double>(run->clock.first_batch_ns.load() - origin -
                                            td * 1000) / 1e6);
    }
    awake.reset();
    std::printf("perfbench: set-up over %zu bring-ups in %.1f s: min %.3f ms, "
                "median %.3f ms, max %.3f ms (medians: %.3f ms to the clock "
                "sync, first batch %.3f ms past its boundary)\n",
                setups.size(), static_cast<double>(NowNs() - setup_t0) / 1e9,
                Quantile(setups, 0) * 1e3, Quantile(setups, 0.5) * 1e3,
                Quantile(setups, 1) * 1e3, Quantile(to_sync_ms, 0.5),
                Quantile(late_ms, 0.5));
    // The host's timing noise (other tenants, steal bursts) moves whole
    // runs and, within a run, stretches of it. The run is therefore repeated,
    // each time in a fresh child process: capacity, CPU and memory are
    // medians over the repeats, and the paced-phase figures are medians over
    // the epochs of all repeats.
    auto child_stuck = [] {
      std::printf("perfbench: node threads did not finish after forced teardown\n");
    };
    std::vector<double> cap, p50, p99, delay, cpu, mem;
    std::uint64_t probes = 0;
    double min_epoch_probes = 1e300;
    std::uint64_t batches = 0;
    for (int i = 0; i < kRepeats; ++i) {
      const auto flat = InChild([&] {
        auto run = RunCluster(wl, trace, ph, false, deadline, child_stuck);
        const Eval e = Evaluate(*run, wl, ph, trace, want);
        report(*run, e, false);
        RepeatFigures f;
        f.failed = e.Failed();
        f.exact = e.exact;
        f.capacity_tps = e.capacity_tps;
        f.cpu_us_per_tuple = e.cpu_us_per_tuple;
        f.mem_mb = static_cast<double>(run->rss_peak_bytes - run->rss_base_bytes) / 1e6;
        f.probes = static_cast<double>(e.probes_paced);
        f.min_epoch_probes = static_cast<double>(e.min_epoch_probes);
        f.batches = static_cast<double>(e.paced_batches);
        f.epoch_p50_ms = e.epoch_p50_ms;
        f.epoch_p99_ms = e.epoch_p99_ms;
        f.epoch_delay_ms = e.epoch_delay_ms;
        return f.Flatten();
      });
      const std::optional<RepeatFigures> e =
          flat ? RepeatFigures::From(*flat) : std::nullopt;
      ++attempted;
      if (!e) {
        // The child crashed or was stuck past its deadline: a failed run,
        // and no point in spending the remaining time on more.
        std::printf("perfbench: repeat %d ended without reporting\n", i + 1);
        ++failed;
        correct = false;
        break;
      }
      if (e->failed) ++failed;
      if (!e->exact) correct = false;
      cap.push_back(e->capacity_tps);
      p50.insert(p50.end(), e->epoch_p50_ms.begin(), e->epoch_p50_ms.end());
      p99.insert(p99.end(), e->epoch_p99_ms.begin(), e->epoch_p99_ms.end());
      delay.insert(delay.end(), e->epoch_delay_ms.begin(), e->epoch_delay_ms.end());
      cpu.push_back(e->cpu_us_per_tuple);
      mem.push_back(e->mem_mb);
      probes += static_cast<std::uint64_t>(e->probes);
      min_epoch_probes = std::min(min_epoch_probes, e->min_epoch_probes);
      batches += static_cast<std::uint64_t>(e->batches);
      std::printf("perfbench: repeat %d: emit p50 %.3f ms, p99 %.3f ms, "
                  "delay %.3f ms (epoch medians), capacity %.0f tuples/s, "
                  "cpu %.4f us, mem %.1f MB\n",
                  i + 1, Quantile(e->epoch_p50_ms, 0.5), Quantile(e->epoch_p99_ms, 0.5),
                  Quantile(e->epoch_delay_ms, 0.5), e->capacity_tps, cpu.back(),
                  mem.back());
    }
    std::printf("perfbench: emit latency over %llu probes in %llu epoch "
                "batches, %zu epochs of %.2f s (fewest probes in one: %.0f); "
                "medians of %d repeats; set-up median of %zu bring-ups\n",
                static_cast<unsigned long long>(probes),
                static_cast<unsigned long long>(batches), p50.size(),
                sjoin::UsToSeconds(ph.epoch),
                min_epoch_probes, kRepeats,
                setups.size());
    const std::vector<Metric> metrics = {
        {"capacity_tps", Quantile(cap, 0.5), "tuples/s"},
        {"emit_p50_ms", Quantile(p50, 0.5), "ms"},
        {"emit_p99_ms", Quantile(p99, 0.5), "ms"},
        {"delay_mean_ms", Quantile(delay, 0.5), "ms"},
        {"cpu_us_per_tuple", Quantile(cpu, 0.5), "us"},
        {"mem_peak_mb", Quantile(mem, 0.5), "MB"},
        {"setup_s", Quantile(setups, 0.5), "s"},
    };
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced: an untraced run for the overhead baseline, the traced run, then
  // the standalone layer drives.
  auto [plain, pe] = run_main(false);
  plain.reset();
  auto [traced, te] = run_main(true);
  std::map<std::string, double> m;
  TracedLayerMetrics(*traced, wl, ph, m,
                     std::string(kOutDir) + "/spans-" + wl.name + "-" +
                         std::to_string(args.seed) + ".jsonl");
  traced.reset();
  m["obs.trace_overhead_pct"] =
      pe.capacity_tps > 0 ? (pe.capacity_tps - te.capacity_tps) / pe.capacity_tps * 100
                          : 0;
  DriveLayers(wl, ph, trace, m);
  std::vector<Metric> metrics;
  for (const auto& [name, value] : m) {
    metrics.push_back({name, value, PerLayerUnit(name)});
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
