// Standalone drives of each layer's public functions on a workload's own
// inputs: the warm-up and paced part of its trace, cut into its epochs and
// routed to its slaves exactly as the master does.
#include <sys/socket.h>

#include <algorithm>
#include <map>
#include <thread>

#include "bench.h"
#include "core/master_buffer.h"
#include "core/partition_map.h"
#include "core/worker_pool.h"
#include "join/join_module.h"
#include "net/codec.h"
#include "net/inproc_transport.h"
#include "net/socket_transport.h"
#include "window/state_codec.h"

namespace perfbench {

namespace {

constexpr Duration kDrainBudget = 365LL * 24 * 3600 * sjoin::kUsPerSec;

class CountSink final : public sjoin::JoinSink {
 public:
  void OnMatches(const sjoin::Rec&, std::span<const Time> partners,
                 Time) override {
    outputs += partners.size();
  }
  std::uint64_t outputs = 0;
};

/// The slave join configuration the wall-clock runner uses: the virtual
/// cost model zeroed, everything else as configured.
sjoin::SystemConfig WallJoinConfig(const sjoin::SystemConfig& cfg) {
  sjoin::SystemConfig c = cfg;
  c.cost.cmp_ns = 0.0;
  c.cost.tuple_fixed_ns = 0.0;
  c.cost.cpu_byte_ns = 0.0;
  c.cost.wire_byte_ns = 0.0;
  c.cost.msg_fixed_us = 0;
  c.cost.move_ns = 0.0;
  return c;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Epoch slices of the trace prefix (warm-up + paced): [begin, end) indexes.
std::vector<std::pair<std::size_t, std::size_t>> EpochSlices(
    const std::vector<sjoin::Rec>& trace, Time until, Duration td) {
  std::vector<std::pair<std::size_t, std::size_t>> slices;
  std::size_t i = 0;
  for (Time b = td; b <= until; b += td) {
    const std::size_t start = i;
    while (i < trace.size() && trace[i].ts <= b) ++i;
    slices.emplace_back(start, i);
  }
  return slices;
}

struct JoinDrive {
  double ns = 0;
  std::uint64_t tuples = 0;
};

/// EnqueueBatch + ProcessFor over `epochs` slices of the trace on one
/// module (the whole key space), timed.
JoinDrive DriveJoin(sjoin::JoinModule& join,
                    const std::vector<sjoin::Rec>& trace,
                    const std::vector<std::pair<std::size_t, std::size_t>>& sl,
                    std::size_t epochs, Duration td) {
  JoinDrive d;
  const std::int64_t t0 = NowNs();
  for (std::size_t e = 0; e < epochs; ++e) {
    const auto [b, end] = sl[e];
    join.EnqueueBatch(std::span<const sjoin::Rec>(trace.data() + b, end - b));
    join.ProcessFor(static_cast<Time>(e + 1) * td, kDrainBudget);
    d.tuples += end - b;
  }
  d.ns = static_cast<double>(NowNs() - t0);
  return d;
}

/// Median Send -> Recv (plus a small ack back) of one `payload`-sized
/// tuple-batch frame over a fresh two-endpoint instance of the workload's
/// transport.
double TransportUsPerBatch(TransportKind kind, std::size_t payload) {
  std::unique_ptr<sjoin::InProcHub> hub;
  std::unique_ptr<sjoin::Transport> a;
  std::unique_ptr<sjoin::Transport> b;
  if (kind == TransportKind::kInProc) {
    hub = std::make_unique<sjoin::InProcHub>(2);
    a = hub->Endpoint(0);
    b = hub->Endpoint(1);
  } else {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) return 0;
    a = std::make_unique<sjoin::SocketEndpoint>(0, std::map<sjoin::Rank, int>{{1, sv[0]}});
    b = std::make_unique<sjoin::SocketEndpoint>(1, std::map<sjoin::Rank, int>{{0, sv[1]}});
  }
  std::thread echo([&] {
    while (true) {
      std::optional<sjoin::Message> m = b->Recv();
      if (!m.has_value() || m->type == sjoin::MsgType::kShutdown) return;
      b->Send(0, sjoin::Message{sjoin::MsgType::kAck, 0, 0, 0, 0, {}});
    }
  });
  sjoin::Message frame;
  frame.type = sjoin::MsgType::kTupleBatch;
  frame.payload.assign(payload, 0x5A);
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    sjoin::Message copy = frame;
    const std::int64_t t0 = NowNs();
    a->Send(1, std::move(copy));
    a->RecvFrom(1);
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  a->Send(1, sjoin::Message{});
  echo.join();
  if (hub) hub->Shutdown();
  return Median(us);
}

}  // namespace

void DriveLayers(const Workload& w, const Phases& ph,
                 const std::vector<sjoin::Rec>& trace,
                 std::map<std::string, double>& m) {
  const sjoin::SystemConfig& cfg = w.cfg;
  const Duration td = cfg.epoch.t_dist;
  const std::size_t tb = cfg.workload.tuple_bytes;
  const std::uint32_t np = cfg.join.num_partitions;
  const auto slices = EpochSlices(trace, ph.paced_end, td);
  const std::size_t prefix = slices.empty() ? 0 : slices.back().second;

  // core: MasterBuffer Add + DrainFor per epoch and slave.
  sjoin::PartitionMap pmap(np, cfg.num_slaves);
  std::vector<std::vector<sjoin::PartitionId>> pids(cfg.num_slaves);
  for (std::uint32_t s = 0; s < cfg.num_slaves; ++s) pids[s] = pmap.PartitionsOf(s);
  std::vector<sjoin::TupleBatchMsg> batches;
  std::vector<double> buffer_ns;
  for (int rep = 0; rep < 3; ++rep) {
    batches.clear();
    batches.reserve(slices.size() * cfg.num_slaves);
    sjoin::MasterBuffer buffer(np, tb);
    double ns = 0;
    for (const auto& [b, end] : slices) {
      const std::int64_t t0 = NowNs();
      for (std::size_t i = b; i < end; ++i) {
        buffer.Add(trace[i], sjoin::PartitionOf(trace[i].key, np));
      }
      for (std::uint32_t s = 0; s < cfg.num_slaves; ++s) {
        sjoin::TupleBatchMsg batch;
        batch.recs = buffer.DrainFor(pids[s]);
        batches.push_back(std::move(batch));
      }
      ns += static_cast<double>(NowNs() - t0);
    }
    buffer_ns.push_back(ns / static_cast<double>(std::max<std::size_t>(prefix, 1)));
  }
  m["core.buffer_ns_per_tuple"] = Median(buffer_ns);

  // net: Encode / DecodeTupleBatch on those batches; one median-sized frame
  // over the workload's transport.
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(batches.size());
  std::int64_t t0 = NowNs();
  for (const sjoin::TupleBatchMsg& batch : batches) {
    sjoin::Writer wr(sjoin::TupleBatchMsg::WireSize(batch.recs.size(), tb));
    sjoin::Encode(wr, batch, tb);
    payloads.push_back(std::move(wr).TakeBuffer());
  }
  const double enc_ns = static_cast<double>(NowNs() - t0);
  std::size_t decoded = 0;
  t0 = NowNs();
  for (const std::vector<std::uint8_t>& p : payloads) {
    sjoin::Reader r(p);
    decoded += sjoin::DecodeTupleBatch(r, tb).recs.size();
  }
  const double dec_ns = static_cast<double>(NowNs() - t0);
  const double tuples = static_cast<double>(std::max<std::size_t>(decoded, 1));
  m["net.encode_ns_per_tuple"] = enc_ns / tuples;
  m["net.decode_ns_per_tuple"] = dec_ns / tuples;
  std::vector<double> sizes;
  for (std::size_t i = batches.size() / 2; i < batches.size(); ++i) {
    sizes.push_back(static_cast<double>(payloads[i].size()));
  }
  m["net.transport_us_per_batch"] = TransportUsPerBatch(
      w.transport, static_cast<std::size_t>(Median(sizes)));

  // join: the same epochs on one module at the workload's worker count, then
  // serially. The last epoch is held back for the journal drive.
  const sjoin::SystemConfig jcfg = WallJoinConfig(cfg);
  const std::size_t timed = slices.size() - 1;
  {
    CountSink sink;
    sjoin::JoinModule join(jcfg, &sink);
    sjoin::WorkerPool pool(cfg.slave.workers);
    join.SetWorkerPool(&pool);
    const JoinDrive d = DriveJoin(join, trace, slices, timed, td);
    m["join.ns_per_tuple"] = d.ns / static_cast<double>(std::max<std::uint64_t>(d.tuples, 1));
  }
  CountSink sink;
  sjoin::JoinModule join(jcfg, &sink);
  const JoinDrive d = DriveJoin(join, trace, slices, timed, td);
  const double dt = static_cast<double>(std::max<std::uint64_t>(d.tuples, 1));
  m["join.ns_per_tuple_serial"] = d.ns / dt;
  m["join.comparisons_per_tuple"] = static_cast<double>(join.Comparisons()) / dt;
  m["join.outputs_per_tuple"] = static_cast<double>(sink.outputs) / dt;
  m["join.splits"] = static_cast<double>(join.Splits());
  m["join.merges"] = static_cast<double>(join.Merges());

  // window: snapshot and restore every steady-state group; then journal one
  // more epoch and take + frame the deltas.
  double snap_ns = 0;
  double restore_ns = 0;
  double records = 0;
  join.Store().ForEachGroup([&](sjoin::PartitionId, const sjoin::PartitionGroup& g) {
    sjoin::Writer wr;
    std::int64_t s0 = NowNs();
    sjoin::EncodeGroupState(wr, g);
    snap_ns += static_cast<double>(NowNs() - s0);
    sjoin::Reader r(wr.Bytes());
    s0 = NowNs();
    auto back = sjoin::DecodeGroupState(r, jcfg.join, tb);
    restore_ns += static_cast<double>(NowNs() - s0);
    records += static_cast<double>(back->TotalCount());
  });
  m["window.snapshot_ns_per_tuple"] = snap_ns / std::max(records, 1.0);
  m["window.restore_ns_per_tuple"] = restore_ns / std::max(records, 1.0);
  m["window.state_mb"] = static_cast<double>(join.Store().TotalBytes()) / 1e6;

  join.EnableCheckpointJournal();
  const auto [lb, le] = slices.back();
  join.EnqueueBatch(std::span<const sjoin::Rec>(trace.data() + lb, le - lb));
  join.ProcessFor(static_cast<Time>(slices.size()) * td, kDrainBudget);
  double journal_ns = 0;
  double journaled = 0;
  for (sjoin::PartitionId pid : join.Store().OwnedPartitions()) {
    const std::int64_t s0 = NowNs();
    std::vector<sjoin::Rec> delta = join.TakeJournal(pid);
    sjoin::Writer wr;
    sjoin::EncodeStateDelta(wr, delta, tb);
    journal_ns += static_cast<double>(NowNs() - s0);
    journaled += static_cast<double>(delta.size());
  }
  m["window.journal_ns_per_tuple"] = journal_ns / std::max(journaled, 1.0);
}

}  // namespace perfbench
