// Cluster bring-up and teardown on node threads of this process, over the
// workload's transport, with a wall deadline that turns a hang into a
// counted failed run.
#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "bench.h"
#include "net/inproc_transport.h"
#include "net/socket_transport.h"

namespace perfbench {

using sjoin::Rank;

std::int64_t ResidentBytes() {
  static const long page = sysconf(_SC_PAGESIZE);
  const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char buf[128] = {};
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return 0;
  long size = 0;
  long resident = 0;
  if (std::sscanf(buf, "%ld %ld", &size, &resident) != 2) return 0;
  return static_cast<std::int64_t>(resident) * page;
}

KeepCpusAwake::KeepCpusAwake() {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &all)) continue;
    spinners_.emplace_back([this, c] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      sched_param idle{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

KeepCpusAwake::~KeepCpusAwake() {
  stop_.store(true);
  for (std::thread& t : spinners_) t.join();
}

namespace {

/// Send and receive buffer of each socketpair end (capped by the kernel's
/// net.core.wmem_max / rmem_max).
constexpr int kSocketBufferBytes = 4 << 20;

/// CPU placement of the node threads, as in a shared-nothing cluster: the
/// coordinator side (master, collector, the benchmark's memory sampler)
/// gets the first CPU of the process's set plus any left over, and each
/// slave CPUs of its own -- all the rest when there is one slave. Threads a
/// node spawns inherit its set. Left to the scheduler, two slaves' join
/// threads sometimes stack on one CPU for a whole run, which then reads
/// half speed.
struct Placement {
  cpu_set_t coordinator;
  std::vector<cpu_set_t> slaves;
  bool split = false;
};

Placement MakePlacement(Rank n) {
  Placement p;
  CPU_ZERO(&p.coordinator);
  p.slaves.resize(n);
  for (cpu_set_t& s : p.slaves) CPU_ZERO(&s);
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return p;
  std::vector<int> spare;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) spare.push_back(c);
  }
  if (spare.size() < 2) return p;
  CPU_SET(spare.front(), &p.coordinator);
  spare.erase(spare.begin());
  if (n == 1) {
    for (int c : spare) CPU_SET(c, &p.slaves[0]);
  } else {
    for (Rank s = 0; s < n; ++s) CPU_SET(spare[s % spare.size()], &p.slaves[s]);
    for (std::size_t i = n; i < spare.size(); ++i) CPU_SET(spare[i], &p.coordinator);
  }
  p.split = true;
  return p;
}

void PinThread(const Placement& p, const cpu_set_t& set) {
  if (p.split) pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

}  // namespace

std::unique_ptr<ClusterRun> RunCluster(const Workload& w,
                                       const std::vector<sjoin::Rec>& trace,
                                       const Phases& ph, bool traced,
                                       double deadline_s,
                                       const std::function<void()>& on_stuck) {
  auto run = std::make_unique<ClusterRun>();
  const sjoin::SystemConfig& cfg = w.cfg;
  const Rank n = cfg.num_slaves;
  const Rank ranks = n + 2;
  const Duration td = cfg.epoch.t_dist;
  const std::size_t epochs = static_cast<std::size_t>(ph.sat_end / td) + 8;
  const Placement place = MakePlacement(n);

  // The emission sinks (with their histograms) belong to the benchmark, so
  // they exist before the resident-size baseline is taken.
  for (Rank s = 0; s < n; ++s) {
    run->sinks.push_back(std::make_unique<EmitSink>(&run->clock, ph, td));
  }

  // Peak resident size is sampled by a side thread for the whole run, over
  // a baseline taken after handing the previous run's freed heap back to
  // the system, so that runs in one process start alike.
  malloc_trim(0);
  run->rss_base_bytes = ResidentBytes();
  std::atomic<bool> sampling{true};
  std::int64_t rss_peak = run->rss_base_bytes;
  std::thread sampler([&] {
    PinThread(place, place.coordinator);
    while (sampling.load(std::memory_order_relaxed)) {
      rss_peak = std::max(rss_peak, ResidentBytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  const double cpu0 = ProcessCpuSeconds();
  run->bringup_ns = NowNs();

  // Transport mesh.
  std::unique_ptr<sjoin::InProcHub> hub;
  std::vector<std::unique_ptr<sjoin::Transport>> eps(ranks);
  std::vector<std::vector<int>> fds_of(ranks);  // for the forced teardown
  std::mutex fds_mu;                            // guards fds_of and eps[0]
  if (w.transport == TransportKind::kInProc) {
    hub = std::make_unique<sjoin::InProcHub>(ranks);
    for (Rank r = 0; r < ranks; ++r) eps[r] = hub->Endpoint(r);
  } else {
    std::vector<std::map<Rank, int>> fds(ranks);
    for (Rank i = 0; i < ranks; ++i) {
      for (Rank j = i + 1; j < ranks; ++j) {
        int sv[2] = {-1, -1};
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
          std::perror("socketpair");
          std::exit(2);
        }
        // Buffers as a tuned link would have them: with the 208 KB
        // default, a batch frame of a few MB took a dozen writer/reader
        // wakeups, and the latency tail tracked the host's scheduling
        // delay rather than the program.
        for (int fd : sv) {
          const int size = kSocketBufferBytes;
          ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
          ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
        }
        fds[i][j] = sv[0];
        fds[j][i] = sv[1];
        fds_of[i].push_back(sv[0]);
        fds_of[j].push_back(sv[1]);
      }
    }
    for (Rank r = 0; r < ranks; ++r) {
      eps[r] = std::make_unique<sjoin::SocketEndpoint>(r, std::move(fds[r]));
    }
  }
  for (Rank r = 0; r < ranks; ++r) {
    run->probes.push_back(std::make_unique<ProbeTransport>(
        eps[r].get(), &run->clock, td, traced, epochs));
  }

  sjoin::WallOptions wall;
  wall.run_for = 365LL * 24 * 3600 * sjoin::kUsPerSec;  // the trace ends it
  wall.input_trace = &trace;
  for (Rank s = 0; s < n; ++s) {
    wall.slave_extra_sinks.push_back(run->sinks[s].get());
  }

  std::mutex done_mu;
  std::condition_variable done_cv;
  Rank done = 0;
  auto finished = [&] {
    std::lock_guard<std::mutex> lock(done_mu);
    ++done;
    done_cv.notify_all();
  };

  std::vector<std::thread> nodes;
  for (Rank s = 1; s <= n; ++s) {
    nodes.emplace_back([&, s] {
      PinThread(place, place.slaves[s - 1]);
      sjoin::RunSlaveNode(*run->probes[s], cfg, wall);
      finished();
    });
  }
  nodes.emplace_back([&] {
    PinThread(place, place.coordinator);
    run->collector = sjoin::RunCollectorNode(*run->probes[n + 1], cfg);
    finished();
  });
  nodes.emplace_back([&] {
    PinThread(place, place.coordinator);
    run->master = sjoin::RunMasterNode(*run->probes[0], cfg, wall);
    // Release the master's endpoint at once: over sockets, a slave still
    // sending to a master that no longer reads would block forever on a
    // full socket; closed, its sends fail fast and are dropped.
    {
      std::lock_guard<std::mutex> lock(fds_mu);
      eps[0].reset();
      fds_of[0].clear();
    }
    finished();
  });

  auto wait_all = [&](double seconds) {
    std::unique_lock<std::mutex> lock(done_mu);
    return done_cv.wait_for(lock, std::chrono::duration<double>(seconds),
                            [&] { return done == ranks; });
  };
  if (!wait_all(deadline_s)) {
    run->hung = true;
    std::fprintf(stderr, "perfbench: run exceeded %.0f s; forcing teardown\n",
                 deadline_s);
    if (hub) hub->Shutdown();
    std::lock_guard<std::mutex> lock(fds_mu);
    for (const std::vector<int>& fds : fds_of) {
      for (int fd : fds) ::shutdown(fd, SHUT_RDWR);
    }
  }
  if (run->hung && !wait_all(20.0)) {
    on_stuck();
    std::_Exit(3);
  }
  for (std::thread& t : nodes) t.join();
  if (hub) hub->Shutdown();
  run->cpu_s = ProcessCpuSeconds() - cpu0;
  sampling.store(false);
  sampler.join();
  run->rss_peak_bytes = rss_peak;
  eps.clear();
  return run;
}

}  // namespace perfbench
