#include "window/mini_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <vector>

#include "common/rng.h"

namespace sjoin {
namespace {

constexpr sjoin::Time kFarFuture = 9'000'000'000'000;

Rec R(Time ts, std::uint64_t key, StreamId s = 0) { return Rec{ts, key, s}; }

TEST(MiniPartitionTest, InsertedRecordsAreFreshUntilSealed) {
  MiniPartition p(4);
  p.Insert(R(1, 10));
  p.Insert(R(2, 10));
  EXPECT_EQ(p.FreshCount(), 2u);
  EXPECT_EQ(p.SealedCount(), 0u);
  // Fresh records are invisible to probes (duplicate-elimination rule).
  EXPECT_TRUE(p.ProbeSealed(10, 0, kFarFuture).empty());

  p.Seal();
  EXPECT_EQ(p.FreshCount(), 0u);
  EXPECT_EQ(p.SealedCount(), 2u);
  EXPECT_EQ(p.ProbeSealed(10, 0, kFarFuture).size(), 2u);
}

TEST(MiniPartitionTest, HeadFullOnlyWithFreshContent) {
  MiniPartition p(2);
  p.Insert(R(1, 1));
  EXPECT_FALSE(p.HeadFull());
  p.Insert(R(2, 2));
  EXPECT_TRUE(p.HeadFull());
  p.Seal();
  EXPECT_FALSE(p.HeadFull());  // full but nothing fresh
}

TEST(MiniPartitionTest, ProbeFiltersByKeyAndWindow) {
  MiniPartition p(8);
  p.Insert(R(100, 7));
  p.Insert(R(200, 7));
  p.Insert(R(300, 9));
  p.Seal();
  // Probe for key 7 within the window starting at ts >= 150.
  auto m = p.ProbeSealed(7, 150, kFarFuture);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], 200);
  // min_ts below everything returns both.
  EXPECT_EQ(p.ProbeSealed(7, 0, kFarFuture).size(), 2u);
  // Unknown key.
  EXPECT_TRUE(p.ProbeSealed(1234, 0, kFarFuture).empty());
}

TEST(MiniPartitionTest, ProbeSpanIsAscendingTimestamps) {
  MiniPartition p(8);
  for (Time t = 1; t <= 5; ++t) p.Insert(R(t * 10, 3));
  p.Seal();
  auto m = p.ProbeSealed(3, 0, kFarFuture);
  ASSERT_EQ(m.size(), 5u);
  for (std::size_t i = 1; i < m.size(); ++i) EXPECT_GT(m[i], m[i - 1]);
}

TEST(MiniPartitionTest, ExpireRemovesWholeOldBlocks) {
  MiniPartition p(2);  // tiny blocks
  p.Insert(R(1, 1));
  p.Insert(R(2, 1));
  p.Seal();
  p.Insert(R(10, 1));
  p.Insert(R(11, 1));
  p.Seal();
  p.Insert(R(20, 1));  // head block, stays
  EXPECT_EQ(p.BlockCount(), 3u);

  auto expired = p.ExpireBlocks(/*low_ts=*/5);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].MaxTs(), 2);
  EXPECT_EQ(p.TotalCount(), 3u);
  EXPECT_EQ(p.SealedCount(), 2u);
  // Expired records are no longer probe-visible.
  EXPECT_EQ(p.ProbeSealed(1, 0, kFarFuture).size(), 2u);
}

TEST(MiniPartitionTest, HeadBlockNeverExpires) {
  MiniPartition p(2);
  p.Insert(R(1, 1));
  p.Insert(R(2, 1));
  p.Seal();
  // Even with a watermark far past everything, the head block stays.
  auto expired = p.ExpireBlocks(1'000'000);
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(p.TotalCount(), 2u);
}

TEST(MiniPartitionTest, BlockExpiresOnlyWhenNewestRecordIsOld) {
  MiniPartition p(2);
  p.Insert(R(1, 1));
  p.Insert(R(100, 1));  // same block: newest ts 100
  p.Seal();
  p.Insert(R(200, 1));
  // low_ts = 50: record at ts=1 is out of window but its block is not.
  EXPECT_TRUE(p.ExpireBlocks(50).empty());
  EXPECT_EQ(p.ExpireBlocks(150).size(), 1u);
}

TEST(MiniPartitionTest, ExpiryKeepsIndexConsistentAcrossManyBlocks) {
  MiniPartition p(4);
  for (Time t = 1; t <= 100; ++t) {
    p.Insert(R(t, static_cast<std::uint64_t>(t % 3)));
    p.Seal();
  }
  (void)p.ExpireBlocks(50);
  // Remaining probe-visible timestamps must all be >= 49 (block granular).
  for (std::uint64_t k = 0; k < 3; ++k) {
    for (Time ts : p.ProbeSealed(k, 0, kFarFuture)) EXPECT_GE(ts, 45);
  }
  // And probing with a min_ts still works.
  auto m = p.ProbeSealed(0, 90, kFarFuture);
  for (Time ts : m) EXPECT_GE(ts, 90);
}

TEST(MiniPartitionTest, InstallSealedIsImmediatelyVisible) {
  MiniPartition p(4);
  p.InstallSealed(R(5, 42));
  p.InstallSealed(R(6, 42));
  EXPECT_EQ(p.FreshCount(), 0u);
  EXPECT_EQ(p.SealedCount(), 2u);
  EXPECT_EQ(p.ProbeSealed(42, 0, kFarFuture).size(), 2u);
}

TEST(MiniPartitionTest, MixedInstallAndInsertKeepTemporalOrder) {
  MiniPartition p(4);
  p.InstallSealed(R(5, 1));
  p.Insert(R(7, 1));
  EXPECT_EQ(p.FreshCount(), 1u);
  EXPECT_EQ(p.SealedCount(), 1u);
  p.Seal();
  auto m = p.ProbeSealed(1, 0, kFarFuture);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], 5);
  EXPECT_EQ(m[1], 7);
}

TEST(MiniPartitionTest, ForEachRecordVisitsInTemporalOrder) {
  MiniPartition p(2);
  for (Time t = 1; t <= 7; ++t) {
    p.Insert(R(t, 9));
    p.Seal();
  }
  Time prev = 0;
  std::size_t n = 0;
  p.ForEachRecord([&](const Rec& r) {
    EXPECT_GT(r.ts, prev);
    prev = r.ts;
    ++n;
  });
  EXPECT_EQ(n, 7u);
}

TEST(MiniPartitionTest, IndexCompactionUnderLongExpiryStream) {
  // Exercise the dead-prefix compaction path (> 64 expired per key).
  MiniPartition p(4);
  for (Time t = 1; t <= 2000; ++t) {
    p.Insert(R(t, 0));
    p.Seal();
    (void)p.ExpireBlocks(t - 100);
  }
  auto m = p.ProbeSealed(0, 0, kFarFuture);
  EXPECT_GE(m.size(), 90u);
  EXPECT_LE(m.size(), 110u);
}

TEST(MiniPartitionTest, IndexTracksLiveKeysAcrossSealAndExpire) {
  MiniPartition p(4);
  // 64 distinct keys, sealed as each block fills (the join module's
  // HeadFull rule): every sealed key must be indexed.
  for (Time t = 1; t <= 64; ++t) {
    p.Insert(R(t, static_cast<std::uint64_t>(t)));
    p.Seal();
  }
  EXPECT_EQ(p.IndexKeyCount(), 64u);

  // Expire everything expirable (the head block never expires): only keys
  // with surviving records may stay in the index -- dead keys must be
  // erased, not left as empty queues.
  (void)p.ExpireBlocks(kFarFuture);
  EXPECT_LE(p.IndexKeyCount(), 4u);
  EXPECT_EQ(p.IndexKeyCount(), p.TotalCount());  // keys are all distinct
  EXPECT_TRUE(p.ProbeSealed(1, 0, kFarFuture).empty());

  // Partial expiry: key 1's records all predate the horizon, key 2 stays.
  MiniPartition q(4);
  for (Time t = 100; t < 108; ++t) {
    q.Insert(R(t, 1));
    q.Seal();
  }
  for (Time t = 200; t < 208; ++t) {
    q.Insert(R(t, 2));
    q.Seal();
  }
  EXPECT_EQ(q.IndexKeyCount(), 2u);
  (void)q.ExpireBlocks(150);
  EXPECT_EQ(q.IndexKeyCount(), 1u);
  EXPECT_TRUE(q.ProbeSealed(1, 0, kFarFuture).empty());
  EXPECT_FALSE(q.ProbeSealed(2, 0, kFarFuture).empty());
}

TEST(MiniPartitionTest, IndexBucketsShrinkAfterBurst) {
  // A bursty run: a wide distinct-key burst grows the bucket array, then
  // the keys die. The shrink rule must rehash the table back down instead
  // of carrying thousands of empty buckets for the rest of the run.
  MiniPartition p(4);
  for (Time t = 1; t <= 20000; ++t) {
    p.Insert(R(t, static_cast<std::uint64_t>(t)));  // all keys distinct
    p.Seal();
  }
  const std::size_t peak = p.IndexBucketCount();
  ASSERT_GT(peak, 1024u);
  (void)p.ExpireBlocks(kFarFuture);
  EXPECT_LE(p.IndexKeyCount(), 4u);  // head block only
  EXPECT_LT(p.IndexBucketCount(), peak / 4);
}

// The first `n` keys (counting up from `from`) whose home slot in a table of
// `slots` slots is `slot`.
std::vector<std::uint64_t> KeysWithHome(std::size_t slot, std::size_t slots,
                                        std::size_t n,
                                        std::uint64_t from = 0) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = from; keys.size() < n; ++k) {
    if ((MiniPartition::IndexHash(k) & (slots - 1)) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(MiniPartitionTest, EraseShiftsCollidingRunAcrossTableWrap) {
  // Block capacity 8 => a 16-slot table that does not grow for five keys.
  MiniPartition p(8);
  ASSERT_EQ(p.IndexBucketCount(), 16u);
  // a, b, c share home slot 14; d's home is 15; e's home is 2. Inserted in
  // that order they fill slots 14, 15, 0, 1, 2 -- one probe run that wraps.
  const auto abc = KeysWithHome(14, 16, 3);
  const std::uint64_t a = abc[0], b = abc[1], c = abc[2];
  const std::uint64_t d = KeysWithHome(15, 16, 1)[0];
  const std::uint64_t e = KeysWithHome(2, 16, 1)[0];
  // Block 1 holds a's only record; b..e continue into block 2.
  const std::uint64_t block1[] = {a, b, c, d, e, b, c, d};
  const std::uint64_t block2[] = {b, c, d, e, b, c, d, e};
  Time t = 1;
  for (std::uint64_t k : block1) p.Insert(R(t++, k));
  p.Seal();
  for (std::uint64_t k : block2) p.Insert(R(t++, k));
  p.Seal();
  p.Insert(R(t++, e));  // head block
  p.Seal();
  ASSERT_EQ(p.IndexKeyCount(), 5u);

  // Expiring block 1 kills a (slot 14): b, c and d must shift back one slot
  // each, while e stays in its home slot 2.
  ASSERT_EQ(p.ExpireBlocks(9).size(), 1u);
  EXPECT_EQ(p.IndexKeyCount(), 4u);
  EXPECT_TRUE(p.ProbeSealed(a, 0, kFarFuture).empty());
  EXPECT_EQ(p.ProbeSealed(b, 0, kFarFuture).size(), 2u);
  EXPECT_EQ(p.ProbeSealed(c, 0, kFarFuture).size(), 2u);
  EXPECT_EQ(p.ProbeSealed(d, 0, kFarFuture).size(), 2u);
  EXPECT_EQ(p.ProbeSealed(e, 0, kFarFuture).size(), 3u);

  // Expiring block 2 kills b, c and d in turn; e must stay reachable.
  ASSERT_EQ(p.ExpireBlocks(17).size(), 1u);
  EXPECT_EQ(p.IndexKeyCount(), 1u);
  for (std::uint64_t k : {a, b, c, d}) {
    EXPECT_TRUE(p.ProbeSealed(k, 0, kFarFuture).empty());
  }
  EXPECT_EQ(p.ProbeSealed(e, 0, kFarFuture).size(), 1u);
}

TEST(MiniPartitionTest, SmallBurstDoesNotPinPooledQueues) {
  // A burst that never grows the table past the shrink rule's 1024-slot
  // floor must still give its idle queues back once it has expired.
  MiniPartition p(4);
  Time t = 1;
  for (int i = 0; i < 400; ++i, ++t) {
    p.Insert(R(t, 1'000'000 + static_cast<std::uint64_t>(i)));
    if (p.HeadFull()) p.Seal();
  }
  EXPECT_EQ(p.IndexKeyCount(), 400u);
  EXPECT_LE(p.IndexBucketCount(), 1024u);
  for (int i = 0; i < 1000; ++i, ++t) {
    p.Insert(R(t, static_cast<std::uint64_t>(t % 8)));
    if (p.HeadFull()) p.Seal();
    (void)p.ExpireBlocks(t - 100);
    ASSERT_LE(p.IndexQueueCount(),
              p.IndexKeyCount() + std::max<std::size_t>(p.IndexKeyCount(), 4))
        << "after " << i << " steady records";
  }
  EXPECT_LE(p.IndexKeyCount(), 8u + 4u);
  EXPECT_LE(p.IndexQueueCount(), 2 * (8u + 4u));
}

TEST(MiniPartitionTest, DifferentialAgainstNaiveModel) {
  // Random Insert / Seal / InstallSealed / ExpireBlocks / ProbeSealed runs
  // checked against a naive per-key model. Half the key universe shares the
  // low 10 bits of IndexHash, so those keys collide at every table size up
  // to 1024 slots and their erases shift probe runs; one hot key pushes its
  // queue through the dead-prefix compaction.
  std::vector<std::uint64_t> keys = KeysWithHome(5, 1024, 24);
  Pcg32 pick(7, 3);
  for (int i = 0; i < 24; ++i) keys.push_back(pick.NextU64());
  const std::uint64_t hot = keys[0];
  const std::uint64_t absent = KeysWithHome(5, 1024, 1, keys[23] + 1)[0];

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Pcg32 rng(seed, 11);
    const std::size_t cap = 1 + rng.NextBounded(6);
    MiniPartition p(cap);
    std::map<std::uint64_t, std::deque<Time>> sealed;  // the model
    std::vector<Rec> fresh;
    Time now = 1;

    auto check_probe = [&](std::uint64_t key, Time lo, Time hi) {
      std::vector<Time> want;
      if (auto it = sealed.find(key); it != sealed.end()) {
        for (Time ts : it->second) {
          if (ts >= lo && ts <= hi) want.push_back(ts);
        }
      }
      auto got = p.ProbeSealed(key, lo, hi);
      ASSERT_EQ(std::vector<Time>(got.begin(), got.end()), want)
          << "key " << key << " [" << lo << ", " << hi << "]";
    };

    for (int step = 0; step < 6000; ++step) {
      const std::uint32_t op = rng.NextBounded(100);
      if (op < 55) {
        now += rng.NextBounded(3);  // ties allowed
        const std::uint64_t key =
            rng.NextBounded(3) == 0 ? hot : keys[rng.NextBounded(48)];
        p.Insert(R(now, key));
        fresh.push_back(R(now, key));
        if (p.HeadFull()) {
          p.Seal();
          for (const Rec& r : fresh) sealed[r.key].push_back(r.ts);
          fresh.clear();
        }
      } else if (op < 62) {
        p.Seal();
        for (const Rec& r : fresh) sealed[r.key].push_back(r.ts);
        fresh.clear();
      } else if (op < 66 && fresh.empty()) {
        // Migration install: only ever onto state with nothing fresh.
        now += rng.NextBounded(3);
        const std::uint64_t key = keys[rng.NextBounded(48)];
        p.InstallSealed(R(now, key));
        sealed[key].push_back(now);
      } else if (op < 78) {
        const Time low = now - static_cast<Time>(rng.NextBounded(400));
        for (const Block& b : p.ExpireBlocks(low)) {
          ASSERT_LT(b.MaxTs(), low);
          for (const Rec& r : b.Records()) {
            auto it = sealed.find(r.key);
            ASSERT_NE(it, sealed.end());
            ASSERT_EQ(it->second.front(), r.ts);
            it->second.pop_front();
            if (it->second.empty()) sealed.erase(it);
          }
        }
      } else {
        const std::uint64_t key =
            rng.NextBounded(10) == 0 ? absent : keys[rng.NextBounded(48)];
        const Time lo = now - static_cast<Time>(rng.NextBounded(300));
        const Time hi = lo + static_cast<Time>(rng.NextBounded(300));
        check_probe(key, lo, hi);
      }
      ASSERT_EQ(p.IndexKeyCount(), sealed.size());
      ASSERT_LE(p.IndexKeyCount() * 2, p.IndexBucketCount());
      // Idle pooled queues never outnumber max(live keys, one block).
      ASSERT_LE(p.IndexQueueCount(),
                p.IndexKeyCount() +
                    std::max(p.IndexKeyCount(), std::bit_ceil(2 * cap) / 2));
      if (step % 500 == 0) {
        for (std::uint64_t k : keys) check_probe(k, 0, kFarFuture);
      }
    }
    for (std::uint64_t k : keys) check_probe(k, 0, kFarFuture);
    check_probe(absent, 0, kFarFuture);
  }
}

TEST(MiniPartitionTest, BurstThenDrainReleasesTableAndPool) {
  // Steady traffic on a few keys, a burst of 20000 distinct keys, then the
  // steady traffic again until the burst has expired: the key table and the
  // pool of queues must both come back down, not stay at the burst's size.
  MiniPartition p(4);
  Time t = 1;
  auto steady = [&](int n) {
    for (int i = 0; i < n; ++i, ++t) {
      p.Insert(R(t, static_cast<std::uint64_t>(t % 8)));
      if (p.HeadFull()) p.Seal();
      (void)p.ExpireBlocks(t - 100);
    }
  };
  steady(1000);
  const std::size_t steady_slots = p.IndexBucketCount();
  EXPECT_LE(p.IndexQueueCount(), 16u);

  for (int i = 0; i < 20000; ++i, ++t) {
    p.Insert(R(t, 1'000'000 + static_cast<std::uint64_t>(i)));
    if (p.HeadFull()) p.Seal();
  }
  EXPECT_GE(p.IndexQueueCount(), 19000u);
  EXPECT_GE(p.IndexBucketCount(), 32768u);

  steady(1000);
  EXPECT_LE(p.IndexKeyCount(), 8u + 4u);
  // The shrink rule stops at its 1024-slot floor; idle queues never
  // outnumber max(live keys, 4) (half the 8-slot table floor).
  EXPECT_LE(p.IndexBucketCount(), 1024u);
  EXPECT_LE(p.IndexQueueCount(), 2 * (8u + 4u));
  // A steady run afterwards does not grow either back.
  const std::size_t drained_queues = p.IndexQueueCount();
  steady(5000);
  EXPECT_LE(p.IndexBucketCount(), 1024u);
  EXPECT_LE(p.IndexQueueCount(), drained_queues);
  EXPECT_LE(steady_slots, 1024u);
}

}  // namespace
}  // namespace sjoin
