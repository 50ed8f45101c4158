// Outside-in probes: the emission sink, the transport decorator and the
// log-linear histogram they record into.
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "bench.h"
#include "net/codec.h"

namespace perfbench {

using sjoin::Message;
using sjoin::MsgType;
using sjoin::RecvResult;

// ---------------------------------------------------------------------------
// LogLinearHistogram

int LogLinearHistogram::Index(std::uint64_t v) {
  if (v < static_cast<std::uint64_t>(kSub)) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBits;
  const int octave = std::min(shift + 1, kOctaves);
  const int sub = octave == shift + 1
                      ? static_cast<int>((v >> shift) - kSub)
                      : kSub - 1;  // saturate beyond the last octave
  return octave * kSub + sub;
}

double LogLinearHistogram::Lower(int idx) {
  const int octave = idx / kSub;
  const int sub = idx % kSub;
  if (octave == 0) return sub;
  return (kSub + sub) * std::ldexp(1.0, octave - 1);
}

double LogLinearHistogram::Width(int idx) {
  const int octave = idx / kSub;
  return octave == 0 ? 1.0 : std::ldexp(1.0, octave - 1);
}

void LogLinearHistogram::Record(std::int64_t v) {
  ++buckets_[static_cast<std::size_t>(
      Index(static_cast<std::uint64_t>(std::max<std::int64_t>(v, 0))))];
  ++count_;
}

void LogLinearHistogram::Merge(const LogLinearHistogram& o) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
}

double LogLinearHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = std::clamp(q * static_cast<double>(count_), 0.5,
                                 static_cast<double>(count_) - 0.5);
  double seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto c = static_cast<double>(buckets_[i]);
    if (c > 0 && seen + c >= rank) {
      // Interpolate linearly inside the bucket.
      const int idx = static_cast<int>(i);
      return Lower(idx) + Width(idx) * (rank - seen) / c;
    }
    seen += c;
  }
  return Lower(static_cast<int>(buckets_.size()) - 1);
}

// ---------------------------------------------------------------------------
// EmitSink

EmitSink::EmitSink(const RunClock* run_clock, const Phases& phases,
                   Duration epoch)
    : clock(run_clock),
      ph(phases),
      t_dist(epoch),
      emit_epoch(phases.PacedEpochs()),
      delay_sum_epoch_ns(phases.PacedEpochs(), 0.0),
      outputs_epoch(phases.PacedEpochs(), 0) {}

void EmitSink::OnMatches(const sjoin::Rec& probe,
                         std::span<const Time> partner_ts, Time) {
  // Emission is stamped here, on receipt, in master time -- not taken from
  // produced_at (see NOTES.md: in wall mode that is the start of the pass).
  const std::int64_t em =
      NowNs() - clock->origin_ns.load(std::memory_order_relaxed);
  Time newest = probe.ts;
  for (Time pts : partner_ts) {
    const Time newer = std::max(probe.ts, pts);
    newest = std::max(newest, newer);
    if (probe.stream == 0) {
      all.Add(probe.ts, pts, probe.key);
    } else {
      all.Add(pts, probe.ts, probe.key);
    }
    const double delay = static_cast<double>(em - newer * 1000);
    delay_sum_all_ns += delay;
    if (newer > ph.warm_end && newer <= ph.paced_end) {
      const std::size_t k = ph.PacedEpochOf(newer);
      delay_sum_epoch_ns[k] += delay;
      ++outputs_epoch[k];
    }
  }
  if (newest > ph.warm_end && newest <= ph.paced_end) {
    const std::int64_t emit = em - DispatchBoundary(newest, t_dist) * 1000;
    if (emit < 0) ++negative_emits;
    emit_epoch[ph.PacedEpochOf(newest)].Record(emit);
  } else if (newest > ph.paced_end) {
    last_emit_sat_ns = std::max(last_emit_sat_ns, em);
  }
}

// ---------------------------------------------------------------------------
// ProbeTransport

ProbeTransport::ProbeTransport(sjoin::Transport* inner, RunClock* clock,
                               Duration t_dist, bool traced,
                               std::size_t expected_epochs)
    : inner_(inner),
      clock_(clock),
      t_dist_(t_dist),
      traced_(traced),
      master_(inner->Self() == 0) {
  batch_recv_ns.reserve(expected_epochs + 64);
  batch_epoch.reserve(expected_epochs + 64);
  batch_done_ns.reserve(expected_epochs + 64);
  if (traced_) spans.reserve(expected_epochs * 16 + 1024);
}

std::int64_t ProbeTransport::ThreadCpuNs() const {
  if (!master_) return 0;
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void ProbeTransport::Send(sjoin::Rank to, Message msg) {
  const auto kind = static_cast<std::size_t>(msg.type) & 31;
  const std::uint64_t wire = msg.WireBytes();
  frames[kind].fetch_add(1, std::memory_order_relaxed);
  bytes[kind].fetch_add(wire, std::memory_order_relaxed);
  const std::int64_t epoch =
      msg.type == MsgType::kTupleBatch ? msg.send_vt / t_dist_ : -1;
  const std::int64_t t0 = NowNs();
  if (master_) {
    if (msg.type == MsgType::kClockSync &&
        clock_->origin_ns.load(std::memory_order_relaxed) == 0) {
      sjoin::Reader r(msg.payload);
      const sjoin::ClockSyncMsg cs = sjoin::DecodeClockSync(r);
      clock_->origin_ns.store(t0 - cs.master_now * 1000);
    }
    if (msg.type == MsgType::kTupleBatch &&
        clock_->first_batch_ns.load(std::memory_order_relaxed) == 0) {
      clock_->first_batch_ns.store(t0);
    }
  } else if (msg.type == MsgType::kMetrics) {
    // The post-batch frame: the join thread finished this batch.
    batch_done_ns.push_back(t0);
  }
  if (!traced_) {
    inner_->Send(to, std::move(msg));
    return;
  }
  const std::int64_t c0 = ThreadCpuNs();
  inner_->Send(to, std::move(msg));
  Span s;
  s.name = "net.send";
  s.rank = Self();
  s.epoch = epoch;
  s.start_ns = t0;
  s.end_ns = NowNs();
  s.cpu_start_ns = c0;
  s.cpu_end_ns = ThreadCpuNs();
  s.kind = static_cast<std::uint8_t>(kind);
  std::lock_guard<std::mutex> lock(spans_mu_);
  spans.push_back(s);
}

void ProbeTransport::Received(const Message* m, std::int64_t t0,
                              std::int64_t t1, std::int64_t c0) {
  const bool batch = m != nullptr && m->type == MsgType::kTupleBatch;
  if (!master_ && batch) {
    batch_recv_ns.push_back(t1);
    batch_epoch.push_back(m->send_vt / t_dist_);
  }
  if (!traced_) return;
  Span s;
  s.name = "net.recv";
  s.rank = Self();
  s.epoch = batch ? m->send_vt / t_dist_ : -1;
  s.start_ns = t0;
  s.end_ns = t1;
  s.cpu_start_ns = c0;
  s.cpu_end_ns = ThreadCpuNs();
  s.kind = m != nullptr ? static_cast<std::uint8_t>(m->type) : 0;
  std::lock_guard<std::mutex> lock(spans_mu_);
  spans.push_back(s);
}

std::optional<Message> ProbeTransport::Recv() {
  const std::int64_t t0 = traced_ ? NowNs() : 0;
  const std::int64_t c0 = traced_ ? ThreadCpuNs() : 0;
  std::optional<Message> m = inner_->Recv();
  if (m.has_value()) Received(&*m, t0, NowNs(), c0);
  return m;
}

std::optional<Message> ProbeTransport::RecvFrom(sjoin::Rank from) {
  const std::int64_t t0 = traced_ ? NowNs() : 0;
  const std::int64_t c0 = traced_ ? ThreadCpuNs() : 0;
  std::optional<Message> m = inner_->RecvFrom(from);
  if (m.has_value()) Received(&*m, t0, NowNs(), c0);
  return m;
}

RecvResult ProbeTransport::RecvTimed(Duration timeout_us) {
  const std::int64_t t0 = traced_ ? NowNs() : 0;
  const std::int64_t c0 = traced_ ? ThreadCpuNs() : 0;
  RecvResult r = inner_->RecvTimed(timeout_us);
  Received(r.Ok() ? &r.msg : nullptr, t0, NowNs(), c0);
  return r;
}

RecvResult ProbeTransport::RecvFromTimed(sjoin::Rank from,
                                         Duration timeout_us) {
  const std::int64_t t0 = traced_ ? NowNs() : 0;
  const std::int64_t c0 = traced_ ? ThreadCpuNs() : 0;
  RecvResult r = inner_->RecvFromTimed(from, timeout_us);
  Received(r.Ok() ? &r.msg : nullptr, t0, NowNs(), c0);
  return r;
}

}  // namespace perfbench
