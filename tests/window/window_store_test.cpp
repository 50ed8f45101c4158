#include "window/window_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

namespace sjoin {
namespace {

constexpr std::size_t kTupleBytes = 64;

JoinConfig Cfg() {
  JoinConfig cfg;
  cfg.num_partitions = 60;
  return cfg;
}

std::vector<PartitionId> VisitOrder(const WindowStore& store) {
  std::vector<PartitionId> pids;
  store.ForEachGroup(
      [&](PartitionId pid, const PartitionGroup&) { pids.push_back(pid); });
  return pids;
}

TEST(WindowStoreTest, IteratesInAscendingPidOrder) {
  WindowStore store(Cfg(), kTupleBytes);
  store.Ensure(42);
  store.Ensure(3);
  store.Install(17, std::make_unique<PartitionGroup>(Cfg(), kTupleBytes));
  store.Ensure(59);
  store.Ensure(0);
  store.Install(8, std::make_unique<PartitionGroup>(Cfg(), kTupleBytes));

  const std::vector<PartitionId> want = {0, 3, 8, 17, 42, 59};
  EXPECT_EQ(store.OwnedPartitions(), want);
  EXPECT_EQ(VisitOrder(store), want);
  std::vector<PartitionId> mutable_order;
  store.ForEachGroup(
      [&](PartitionId pid, PartitionGroup&) { mutable_order.push_back(pid); });
  EXPECT_EQ(mutable_order, want);
  EXPECT_EQ(store.GroupCount(), want.size());
}

TEST(WindowStoreTest, EnsureIsIdempotent) {
  WindowStore store(Cfg(), kTupleBytes);
  PartitionGroup& g = store.Ensure(7);
  EXPECT_EQ(&store.Ensure(7), &g);
  EXPECT_EQ(store.Find(7), &g);
  EXPECT_EQ(store.GroupCount(), 1u);
}

TEST(WindowStoreTest, TakeInstallRoundTrip) {
  WindowStore store(Cfg(), kTupleBytes);
  PartitionGroup& g = store.Ensure(11);
  g.InstallSealed(Rec{5, 99, 0});
  g.InstallSealed(Rec{6, 99, 1});
  store.Ensure(12);
  ASSERT_EQ(store.GroupCount(), 2u);
  EXPECT_EQ(store.TotalCount(), 2u);

  std::unique_ptr<PartitionGroup> taken = store.Take(11);
  ASSERT_EQ(taken.get(), &g);
  EXPECT_EQ(store.Find(11), nullptr);
  EXPECT_EQ(store.GroupCount(), 1u);
  EXPECT_EQ(store.TotalCount(), 0u);
  EXPECT_EQ(store.OwnedPartitions(), std::vector<PartitionId>{12});

  // Installed on another store (the consumer side of a migration) and back.
  WindowStore other(Cfg(), kTupleBytes);
  other.Install(11, std::move(taken));
  EXPECT_EQ(other.Find(11), &g);
  EXPECT_EQ(other.TotalCount(), 2u);
  store.Install(11, other.Take(11));
  EXPECT_EQ(other.GroupCount(), 0u);
  EXPECT_EQ(store.Find(11), &g);
  EXPECT_EQ(store.GroupCount(), 2u);
  EXPECT_EQ(store.TotalCount(), 2u);
  EXPECT_EQ(store.TotalBytes(), 2 * kTupleBytes);
}

TEST(WindowStoreTest, FindIsNullForUnownedAndOutOfRangePids) {
  WindowStore store(Cfg(), kTupleBytes);
  store.Ensure(0);
  store.Ensure(4);
  const WindowStore& cstore = store;
  EXPECT_EQ(store.Find(5), nullptr);
  EXPECT_EQ(cstore.Find(5), nullptr);
  EXPECT_EQ(store.Find(60), nullptr);
  EXPECT_EQ(cstore.Find(60), nullptr);
  EXPECT_EQ(store.Find(1'000'000), nullptr);
  EXPECT_EQ(cstore.Find(0xFFFFFFFFu), nullptr);
  EXPECT_NE(cstore.Find(0), nullptr);
  EXPECT_NE(cstore.Find(4), nullptr);
}

TEST(WindowStoreTest, EnsureAndInstallRejectOutOfRangePids) {
  // A pid from the wire is not trusted: it must fail here, not size the
  // pid-indexed vector to it.
  WindowStore store(Cfg(), kTupleBytes);
  EXPECT_THROW(store.Ensure(60), std::out_of_range);
  EXPECT_THROW(store.Ensure(0xFFFFFFF0u), std::out_of_range);
  EXPECT_THROW(
      store.Install(0xFFFFFFF0u,
                    std::make_unique<PartitionGroup>(Cfg(), kTupleBytes)),
      std::out_of_range);
  EXPECT_EQ(store.GroupCount(), 0u);
  EXPECT_TRUE(store.OwnedPartitions().empty());
  store.Ensure(59);
  EXPECT_EQ(store.OwnedPartitions(), std::vector<PartitionId>{59});
}

}  // namespace
}  // namespace sjoin
