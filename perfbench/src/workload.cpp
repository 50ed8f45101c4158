// Workload table, seeded trace generation and the streaming exactness oracle.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "bench.h"
#include "gen/rate_schedule.h"
#include "gen/stream_source.h"

namespace perfbench {

namespace {

// Why each workload exists, and which layers it loads and bypasses, is
// recorded in BENCHMARK.json. On a 4-core host each workload's capacity sits
// at no more than about half the trace ceiling, so the saturated phase
// builds a backlog, and the paced rate sits well below capacity.
std::vector<Workload> MakeTable() {
  std::vector<Workload> t;
  {
    // Join-bound: one slave on the multi-worker pass, a multi-second window
    // over a mid-size skewed key domain, so probe/insert, the window and its
    // extendible hash, and the worker pool do most of the work.
    Workload w;
    w.name = "probe_heavy";
    w.sat_share = 0.125;
    w.cfg.num_slaves = 1;
    w.cfg.slave.workers = 2;
    w.cfg.join.window = 2 * sjoin::kUsPerSec;
    w.cfg.workload.key_domain = 100'000;
    w.cfg.epoch.t_dist = 100 * sjoin::kUsPerMs;
    w.transport = TransportKind::kInProc;
    t.push_back(w);
  }
  {
    // Wire-bound: two slaves over AF_UNIX sockets, 2 KB tuples, a large key
    // domain (few matches), a short window and short epochs, so per-tuple
    // bytes, the codec, master routing/buffering and the per-epoch
    // load-report round trips dominate while the join idles. At 20 ms
    // epochs a batch took about 2 ms, so stalls of the host of a few ms set
    // the latency tail; at 50 ms a batch takes about 5 ms.
    Workload w;
    w.name = "wire_heavy";
    w.sat_share = 0.075;
    w.cfg.num_slaves = 2;
    w.cfg.join.window = 1 * sjoin::kUsPerSec;
    w.cfg.workload.key_domain = 1'000'000;
    w.cfg.workload.tuple_bytes = 2048;
    w.cfg.epoch.t_dist = 50 * sjoin::kUsPerMs;
    w.transport = TransportKind::kUnixSocket;
    t.push_back(w);
  }
  {
    // Checkpoint-bound: two slaves with buddy replication checkpointing
    // every epoch and 768-byte tuples, so group state is written out as journal
    // deltas (and snapshots) beside probe/insert, checkpoint frames are
    // heavy, and the master retains every batch until it is covered.
    Workload w;
    w.name = "ckpt_heavy";
    w.sat_share = 0.075;
    w.cfg.num_slaves = 2;
    w.cfg.join.window = 2 * sjoin::kUsPerSec;
    w.cfg.workload.key_domain = 4'096;
    w.cfg.workload.tuple_bytes = 768;
    w.cfg.epoch.t_dist = 100 * sjoin::kUsPerMs;
    w.cfg.replication.enabled = true;
    w.cfg.replication.ckpt_interval_epochs = 1;
    w.transport = TransportKind::kInProc;
    t.push_back(w);
  }
  for (Workload& w : t) {
    w.cfg.workload.b_skew = 0.7;
    w.cfg.join.theta_bytes = 256 * 1024;  // windows split into mini-groups
    w.paced_rate = 40'000;
    // The generator floors gaps at 1 us: asking for 2 M/s per stream yields
    // its ceiling, about one tuple per microsecond per stream.
    w.ceiling_rate = 2'000'000;
    // No reorganization within a run: whether a reorganization epoch moves a
    // group depends on wall timing (the slaves' inbox occupancy), and a move
    // mid-phase shifts latency and capacity from run to run.
    w.cfg.epoch.t_rep = 600 * sjoin::kUsPerSec;
  }
  return t;
}

const std::vector<Workload>& Table() {
  static const std::vector<Workload> table = MakeTable();
  return table;
}

Time RoundToEpochs(double us, Duration t_dist) {
  const auto k = static_cast<Time>(std::llround(us / static_cast<double>(t_dist)));
  return std::max<Time>(1, k) * t_dist;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Table()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Table()) names.push_back(w.name);
  return names;
}

Phases PhasesFor(const Workload& w, double seconds) {
  constexpr double kPacedShare = 0.6;
  const Duration td = w.cfg.epoch.t_dist;
  const double us = seconds * static_cast<double>(sjoin::kUsPerSec);
  Phases ph;
  ph.epoch = td;
  ph.warm_end = RoundToEpochs(static_cast<double>(w.cfg.join.window), td);
  ph.paced_end = ph.warm_end + RoundToEpochs(us * kPacedShare, td);
  ph.sat_end = ph.paced_end + RoundToEpochs(us * w.sat_share, td);
  return ph;
}

std::vector<sjoin::Rec> MakeTrace(const Workload& w, const Phases& ph,
                                  std::uint64_t seed) {
  sjoin::RateSchedule schedule(std::vector<sjoin::RatePhase>{
      {ph.paced_end, w.paced_rate},
      {ph.sat_end - ph.paced_end, w.ceiling_rate}});
  sjoin::MergedSource src(std::move(schedule), w.cfg.workload.b_skew,
                          w.cfg.workload.key_domain, seed);
  std::vector<sjoin::Rec> trace;
  trace.reserve(static_cast<std::size_t>(
      2.1 * (w.paced_rate * sjoin::UsToSeconds(ph.paced_end) +
             w.ceiling_rate * sjoin::UsToSeconds(ph.sat_end - ph.paced_end))));
  while (src.PeekTs() <= ph.sat_end) trace.push_back(src.Next());
  return trace;
}

OutputDigest StreamingOracle(const std::vector<sjoin::Rec>& trace,
                             Duration window) {
  // Per stream and key: the timestamps still inside the window, oldest
  // first. Timestamps only grow, so an entry older than the current tuple's
  // window never matches again and is dropped for good.
  struct Slot {
    std::vector<Time> ts;
    std::size_t head = 0;
  };
  std::unordered_map<std::uint64_t, Slot> live[2];
  live[0].reserve(1 << 16);
  live[1].reserve(1 << 16);
  OutputDigest d;
  for (const sjoin::Rec& r : trace) {
    auto it = live[1 - r.stream].find(r.key);
    if (it != live[1 - r.stream].end()) {
      Slot& s = it->second;
      while (s.head < s.ts.size() && s.ts[s.head] < r.ts - window) ++s.head;
      if (s.head > 64 && s.head * 2 > s.ts.size()) {
        s.ts.erase(s.ts.begin(), s.ts.begin() + static_cast<std::ptrdiff_t>(s.head));
        s.head = 0;
      }
      for (std::size_t i = s.head; i < s.ts.size(); ++i) {
        if (r.stream == 0) {
          d.Add(r.ts, s.ts[i], r.key);
        } else {
          d.Add(s.ts[i], r.ts, r.key);
        }
      }
    }
    live[r.stream][r.key].ts.push_back(r.ts);
  }
  return d;
}

std::uint64_t TraceDigest(const std::vector<sjoin::Rec>& trace,
                          std::size_t tuple_bytes) {
  std::uint64_t h = sjoin::Mix64(tuple_bytes ^ trace.size());
  for (const sjoin::Rec& r : trace) {
    h = sjoin::Mix64(h ^ static_cast<std::uint64_t>(r.ts));
    h = sjoin::Mix64(h ^ r.key);
    h = sjoin::Mix64(h ^ r.stream);
  }
  return h;
}

OutputDigest CachedOracle(const std::string& cache_dir, const Workload& w,
                          const Phases& ph, std::uint64_t seed,
                          const std::vector<sjoin::Rec>& trace) {
  std::ostringstream name;
  name << cache_dir << "/" << w.name << "-" << seed << "-" << ph.warm_end
       << "-" << ph.paced_end << "-" << ph.sat_end << "-" << std::hex
       << TraceDigest(trace, w.cfg.workload.tuple_bytes) << "-"
       << w.cfg.join.window << ".oracle";
  const std::string path = name.str();
  {
    std::ifstream in(path);
    OutputDigest d;
    if (in >> d.pairs >> d.digest) return d;
  }
  const OutputDigest d = StreamingOracle(trace, w.cfg.join.window);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << d.pairs << " " << d.digest << "\n";
  }
  std::rename(tmp.c_str(), path.c_str());
  return d;
}

}  // namespace perfbench
