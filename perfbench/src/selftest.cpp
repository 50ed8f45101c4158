// The benchmark's own C++ self-tests: the exactness oracle against the
// program's reference join, its sensitivity to one dropped or duplicated
// output, determinism of the seeded inputs, and the histogram's accuracy.
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "gen/trace.h"
#include "join/reference_join.h"

namespace perfbench {

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("selftest: %s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// A small trace through the real generator: the workload's shape with a
/// tiny key domain so it has plenty of matches, short enough for the O(n^2)
/// reference.
std::vector<sjoin::Rec> SmallTrace(const Workload& base, std::uint64_t seed) {
  Workload w = base;
  w.cfg.workload.key_domain = 500;
  w.paced_rate = 1500;
  w.ceiling_rate = 6000;
  Phases ph;
  ph.warm_end = 100'000;
  ph.paced_end = 600'000;
  ph.sat_end = 800'000;
  return MakeTrace(w, ph, seed);
}

std::vector<std::uint8_t> TraceBytes(const std::vector<sjoin::Rec>& t,
                                     std::size_t tuple_bytes) {
  sjoin::Writer w;
  sjoin::EncodeTrace(w, t, tuple_bytes);
  return std::move(w).TakeBuffer();
}

}  // namespace

int RunSelfTests() {
  // The oracle against the program's reference join, on a small trace with
  // plenty of matches.
  const std::vector<sjoin::Rec> small =
      SmallTrace(*FindWorkload(WorkloadNames().front()), 11);
  const Duration window = 150'000;
  const std::vector<sjoin::JoinPair> ref = sjoin::ReferenceSlidingJoin(small, window);
  OutputDigest want;
  for (const sjoin::JoinPair& p : ref) want.Add(p.ts0, p.ts1, p.key);
  const OutputDigest got = StreamingOracle(small, window);
  Check(!ref.empty() && got == want,
        ("streaming oracle equals ReferenceSlidingJoin (" +
         std::to_string(ref.size()) + " pairs)").c_str());
  if (!ref.empty()) {
    OutputDigest dropped;
    for (std::size_t i = 1; i < ref.size(); ++i) {
      dropped.Add(ref[i].ts0, ref[i].ts1, ref[i].key);
    }
    Check(!(dropped == got), "dropping one output changes it");
    OutputDigest duplicated = got;
    const sjoin::JoinPair& mid = ref[ref.size() / 2];
    duplicated.Add(mid.ts0, mid.ts1, mid.key);
    Check(!(duplicated == got), "duplicating one output changes it");
    // Same count, one pair altered: the digest still differs.
    OutputDigest altered;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      altered.Add(ref[i].ts0, i == 0 ? ref[i].ts1 + 1 : ref[i].ts1, ref[i].key);
    }
    Check(!(altered == got), "altering one output changes it");
  }

  // Same seed, same inputs: byte-identical trace and reference digest for
  // each workload's full-size trace.
  for (const std::string& name : WorkloadNames()) {
    const Workload& w = *FindWorkload(name);
    const Phases ph = PhasesFor(w, 2);
    const std::vector<sjoin::Rec> a = MakeTrace(w, ph, 5);
    const std::vector<sjoin::Rec> b = MakeTrace(w, ph, 5);
    const std::vector<sjoin::Rec> c = MakeTrace(w, ph, 6);
    const std::size_t tb = w.cfg.workload.tuple_bytes;
    Check(TraceBytes(a, tb) == TraceBytes(b, tb),
          (name + ": same seed gives a byte-identical trace").c_str());
    Check(StreamingOracle(a, w.cfg.join.window) ==
              StreamingOracle(b, w.cfg.join.window),
          (name + ": same seed gives the same reference digest").c_str());
    Check(TraceDigest(a, tb) != TraceDigest(c, tb),
          (name + ": another seed gives another trace").c_str());
  }

  // Histogram: quantiles of a uniform ramp within one bucket width.
  LogLinearHistogram h;
  for (std::int64_t v = 1; v <= 1'000'000; ++v) h.Record(v * 1000);
  const double p50 = h.Quantile(0.5);
  const double p99 = h.Quantile(0.99);
  Check(std::abs(p50 / 500'000'000.0 - 1) < 0.01 &&
            std::abs(p99 / 990'000'000.0 - 1) < 0.01,
        "log-linear histogram quantiles within 1%");
  std::printf("selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
