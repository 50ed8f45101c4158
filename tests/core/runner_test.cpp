// Integration tests of the wall-clock node runners: the full protocol
// (clock sync, batched distribution, load reports, migration, shutdown)
// running as real concurrent nodes over the in-process transport. The
// fork-and-sockets variant of the same runners is exercised by
// examples/multiprocess_cluster and the socket transport unit tests.
#include "core/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/codec.h"
#include "net/inproc_transport.h"

namespace sjoin {
namespace {

SystemConfig WallCfg(std::uint32_t slaves) {
  SystemConfig cfg;
  cfg.num_slaves = slaves;
  cfg.join.window = kUsPerSec;
  cfg.join.num_partitions = 8;
  cfg.join.theta_bytes = 64 * 1024;
  cfg.epoch.t_dist = 50 * kUsPerMs;   // 50 ms epochs: a fast real-time run
  cfg.epoch.t_rep = 200 * kUsPerMs;
  cfg.workload.lambda = 800.0;
  cfg.workload.key_domain = 2000;
  cfg.workload.seed = 99;
  return cfg;
}

struct ClusterResult {
  MasterSummary master;
  std::vector<SlaveSummary> slaves;
  CollectorSummary collector;
};

/// Wraps the master's endpoint: forwards everything, and just before the
/// first tuple batch to slave 1 sends that slave one of every command that
/// names a partition, each naming a pid far outside the partition space.
class BadPidInjector final : public Transport {
 public:
  BadPidInjector(Transport& inner, std::size_t tuple_bytes)
      : inner_(inner), tuple_bytes_(tuple_bytes) {}

  Rank Self() const override { return inner_.Self(); }
  void Send(Rank to, Message msg) override {
    if (to == 1 && msg.type == MsgType::kTupleBatch &&
        !injected_.exchange(true)) {
      InjectBadPids();
    }
    inner_.Send(to, std::move(msg));
  }
  std::optional<Message> Recv() override { return inner_.Recv(); }
  std::optional<Message> RecvFrom(Rank from) override {
    return inner_.RecvFrom(from);
  }
  RecvResult RecvTimed(Duration timeout_us) override {
    return inner_.RecvTimed(timeout_us);
  }
  RecvResult RecvFromTimed(Rank from, Duration timeout_us) override {
    return inner_.RecvFromTimed(from, timeout_us);
  }

 private:
  static constexpr std::uint32_t kBadPid = 0xFFFFFFF0u;
  static constexpr std::uint64_t kMoveSeq = 1ull << 40;

  void SendToSlave(MsgType type, Writer&& w) {
    Message m;
    m.type = type;
    m.payload = std::move(w).TakeBuffer();
    inner_.Send(1, std::move(m));
  }

  void InjectBadPids() {
    {
      Writer w;
      Encode(w, MoveCmdMsg{kBadPid, 1, kMoveSeq});
      SendToSlave(MsgType::kMoveCmd, std::move(w));
    }
    {
      Writer w;
      Encode(w, MoveCmdMsg{kBadPid, 1, kMoveSeq + 1});
      SendToSlave(MsgType::kInstallCmd, std::move(w));
    }
    {
      StateTransferMsg st;
      st.partition_id = kBadPid;
      st.move_seq = kMoveSeq + 1;
      Writer w;
      Encode(w, st, tuple_bytes_);
      SendToSlave(MsgType::kStateTransfer, std::move(w));
    }
    {
      CkptCmdMsg cc;
      cc.covered_epoch = 1;
      cc.entries.push_back({kBadPid, 1, true});
      Writer w;
      Encode(w, cc);
      SendToSlave(MsgType::kCkptCmd, std::move(w));
    }
    {
      CheckpointMsg cm;
      cm.partition_id = kBadPid;
      cm.to_epoch = 1;
      cm.full = true;
      Writer w;
      Encode(w, cm, tuple_bytes_);
      SendToSlave(MsgType::kCheckpoint, std::move(w));
    }
    {
      FailoverCmdMsg fc;
      fc.dead = 1;
      fc.entries.push_back({kBadPid, 0});
      Writer w;
      Encode(w, fc);
      SendToSlave(MsgType::kFailoverCmd, std::move(w));
    }
  }

  Transport& inner_;
  std::size_t tuple_bytes_;
  std::atomic<bool> injected_{false};
};

ClusterResult RunCluster(const SystemConfig& cfg, const WallOptions& opts,
                         bool inject_bad_pids = false) {
  const Rank ranks = cfg.num_slaves + 2;
  InProcHub hub(ranks);
  ClusterResult result;
  result.slaves.resize(cfg.num_slaves);

  std::vector<std::thread> threads;
  for (Rank s = 1; s <= cfg.num_slaves; ++s) {
    threads.emplace_back([&, s] {
      auto ep = hub.Endpoint(s);
      result.slaves[s - 1] = RunSlaveNode(*ep, cfg, opts);
    });
  }
  std::thread collector([&] {
    auto ep = hub.Endpoint(cfg.num_slaves + 1);
    result.collector = RunCollectorNode(*ep, cfg);
  });

  auto ep = hub.Endpoint(0);
  if (inject_bad_pids) {
    BadPidInjector injector(*ep, cfg.workload.tuple_bytes);
    result.master = RunMasterNode(injector, cfg, opts);
  } else {
    result.master = RunMasterNode(*ep, cfg, opts);
  }

  for (auto& t : threads) t.join();
  collector.join();
  hub.Shutdown();
  return result;
}

TEST(RunnerTest, EndToEndProducesResults) {
  SystemConfig cfg = WallCfg(2);
  WallOptions opts;
  opts.run_for = 1500 * kUsPerMs;
  ClusterResult r = RunCluster(cfg, opts);

  EXPECT_GT(r.master.epochs, 20u);
  EXPECT_GT(r.master.tuples_sent, 1000u);
  std::uint64_t processed = 0;
  for (const SlaveSummary& s : r.slaves) processed += s.tuples_processed;
  EXPECT_EQ(processed, r.master.tuples_sent);
  EXPECT_GT(r.collector.outputs, 0u);
  // Collector aggregates exactly what the slaves produced.
  std::uint64_t slave_outputs = 0;
  for (const SlaveSummary& s : r.slaves) slave_outputs += s.outputs;
  EXPECT_EQ(r.collector.outputs, slave_outputs);
  // Real-time delays: positive, bounded by a few epochs in underload.
  EXPECT_GT(r.collector.avg_delay_us, 0.0);
  EXPECT_LT(r.collector.avg_delay_us, 1e6);
}

TEST(RunnerTest, MigrationMovesLoadAwayFromBusyNode) {
  SystemConfig cfg = WallCfg(2);
  cfg.balance.th_sup = 0.005;  // tiny buffer threshold: migrate readily
  cfg.balance.th_con = 0.004;
  WallOptions opts;
  opts.run_for = 2000 * kUsPerMs;
  // Slave 1 pays 2 ms of fake background work per tuple; its share of the
  // ~1600 t/s combined arrivals is ~800 t/s (1.25 ms gaps), so it cannot
  // keep up and must become a supplier.
  opts.slave_spin_us_per_tuple = {2000, 0};
  ClusterResult r = RunCluster(cfg, opts);

  EXPECT_GT(r.master.migrations, 0u);
  EXPECT_GT(r.slaves[0].groups_moved_out, 0u);
  EXPECT_EQ(r.slaves[1].groups_moved_in, r.slaves[0].groups_moved_out);
}

TEST(RunnerTest, SingleSlaveCluster) {
  SystemConfig cfg = WallCfg(1);
  WallOptions opts;
  opts.run_for = 800 * kUsPerMs;
  ClusterResult r = RunCluster(cfg, opts);
  EXPECT_GT(r.collector.outputs, 0u);
  EXPECT_EQ(r.master.migrations, 0u);  // nowhere to move
}

TEST(RunnerTest, SlaveDropsCommandsWithOutOfRangePids) {
  // Every pid-carrying command to the slave names a pid >= num_partitions.
  // The slave must drop them (not size its pid-indexed store to them) and
  // finish the run exactly as without them.
  SystemConfig cfg = WallCfg(1);
  WallOptions opts;
  opts.run_for = 800 * kUsPerMs;
  ClusterResult r = RunCluster(cfg, opts, /*inject_bad_pids=*/true);
  ASSERT_EQ(r.slaves.size(), 1u);
  EXPECT_GT(r.master.tuples_sent, 0u);
  EXPECT_EQ(r.slaves[0].tuples_processed, r.master.tuples_sent);
  EXPECT_GT(r.collector.outputs, 0u);
  EXPECT_EQ(r.collector.outputs, r.slaves[0].outputs);
  EXPECT_EQ(r.slaves[0].groups_moved_out, 0u);
  EXPECT_EQ(r.slaves[0].groups_moved_in, 0u);
  EXPECT_EQ(r.slaves[0].groups_adopted, 0u);
}

}  // namespace
}  // namespace sjoin
