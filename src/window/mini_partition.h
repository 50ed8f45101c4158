// MiniPartition: one stream's sliding-window state within one
// (mini-)partition-group of a slave.
//
// Storage is a temporally ordered list of fixed-size blocks, exactly as the
// paper requires ("the tuples should maintain the temporal order in the
// stream; this constraint makes any sort-based algorithm infeasible").
// Incoming tuples accumulate as *fresh* records in the head block; a join
// pass seals them, making them visible to opposite-side probes.
//
// The block-nested-loop probe the paper runs over the opposite partition is
// preserved semantically and in cost accounting, but match *finding* is
// accelerated by a per-key timestamp index so the execution-driven simulation
// can process millions of tuples: `ProbeSealed` returns exactly the records a
// BNL scan would match, while the caller charges the scan's comparison count
// (`SealedCount()`) to the virtual clock. tests/join/bnl_equivalence_test.cpp
// proves output- and cost-equivalence against the reference BNL join.
//
// The index is flat and pooled, because keeping it current is most of a join
// pass's cost: an open-addressing table (power-of-two slots, linear probing,
// backward-shift erase, no tombstones) maps each live key to a KeyQueue in a
// pool, and a dead key's queue goes to a free list for the next new key, so
// once the pool has warmed up a key's arrival or death allocates nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "tuple/block.h"
#include "tuple/tuple.h"

namespace sjoin {

class MiniPartition {
 public:
  explicit MiniPartition(std::size_t block_capacity);

  // -- Ingest ---------------------------------------------------------------

  /// Appends an arriving record to the head block as *fresh* (not yet
  /// visible to probes). Records must arrive in non-decreasing ts order.
  void Insert(const Rec& rec);

  /// True when the head block is full and a join pass is due.
  bool HeadFull() const;

  /// Records inserted since the last Seal() (the paper's fresh tuples).
  std::span<const Rec> FreshRecords() const;
  std::size_t FreshCount() const;

  /// Seals every fresh record: marks it joined and enters it into the probe
  /// index. Call after the fresh batch has probed the opposite side.
  void Seal();

  // -- Probe ----------------------------------------------------------------

  /// Returns the timestamps of every *sealed* record with the given key and
  /// min_ts <= ts <= max_ts -- precisely the matches a block-nested-loop
  /// scan of this partition would produce for an opposite-stream probe tuple
  /// with window [probe.ts - W, probe.ts + W] (fresh records are skipped per
  /// the paper's duplicate-elimination rule; the upper bound matters when a
  /// same-flush seal makes records newer than the probe visible). The span
  /// is valid until the next mutating call.
  std::span<const Time> ProbeSealed(std::uint64_t key, Time min_ts,
                                    Time max_ts) const;

  /// Number of sealed records a BNL probe would scan (the comparison count
  /// charged per probe tuple).
  std::size_t SealedCount() const { return sealed_count_; }

  // -- Expiry ---------------------------------------------------------------

  /// Removes whole non-head blocks whose newest record is older than
  /// `low_ts` and returns them (the paper joins an expiring block against
  /// the opposite head's fresh tuples before discarding it).
  std::vector<Block> ExpireBlocks(Time low_ts);

  // -- Introspection / state movement ----------------------------------------

  std::size_t TotalCount() const { return total_count_; }
  std::size_t BlockCount() const { return blocks_.size(); }
  Time MaxSeenTs() const { return max_seen_ts_; }

  /// Live (distinct, non-fully-expired) keys in the probe index. The index
  /// must track live keys exactly: an expired key's entry is erased, and
  /// long bursty runs must not keep a table of empty slots or a pool of
  /// idle queues (see IndexBucketCount, IndexQueueCount and the shrink rule
  /// in ExpireBlocks).
  std::size_t IndexKeyCount() const { return live_keys_; }
  /// Slots of the key table.
  std::size_t IndexBucketCount() const { return slots_.size(); }
  /// Pooled per-key queues, live and free.
  std::size_t IndexQueueCount() const { return queues_.size(); }

  /// Hash whose low bits address a key's home slot in the key table. Salted
  /// apart from PartitionOf and PartitionGroup::TuneHash, whose bits are
  /// equal across the keys of one mini-partition. Public so tests can build
  /// keys that collide.
  static std::uint64_t IndexHash(std::uint64_t key) {
    return Mix64(key ^ 0x5851F42D4C957F2DULL);
  }

  /// Visits all records (sealed then fresh) in temporal order.
  template <class F>
  void ForEachRecord(F f) const {
    for (const Block& b : blocks_) {
      for (const Rec& r : b.Records()) f(r);
    }
  }

  /// Appends a record directly as sealed (used when installing migrated
  /// window state). Records must be appended in ts order.
  void InstallSealed(const Rec& rec);

 private:
  /// Per-key FIFO of sealed record timestamps. `head` advances on expiry;
  /// the live range [head, ts.size()) is ascending in time.
  struct KeyQueue {
    std::vector<Time> ts;
    std::size_t head = 0;
  };

  Block& HeadBlock();
  /// The queue of `key`, taken from the pool (and the key entered into the
  /// table) if the key is not indexed yet.
  std::uint32_t QueueFor(std::uint64_t key);
  static void AppendTs(KeyQueue& q, Time ts);
  void MaybeShrinkIndex();

  /// One key-table slot; `queue == kNoQueue` marks it empty.
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t queue = kNoQueue;
  };
  static constexpr std::uint32_t kNoQueue = 0xFFFFFFFFu;
  /// Largest timestamp buffer a dead key's queue keeps in the pool.
  static constexpr std::size_t kPooledQueueCapacity = 64;

  std::size_t HomeSlot(std::uint64_t key) const {
    return static_cast<std::size_t>(IndexHash(key)) & (slots_.size() - 1);
  }
  /// Slot holding `key`, or slots_.size() if the key is not indexed.
  std::size_t FindSlot(std::uint64_t key) const;
  /// Empties slot `i`, shifting later entries of its probe run back.
  void EraseSlot(std::size_t i);
  /// Re-inserts every live key into a table of `slot_count` slots.
  void ResizeTable(std::size_t slot_count);

  std::size_t block_capacity_;
  std::size_t min_slots_;  // table floor: one block of distinct keys
  std::deque<Block> blocks_;  // oldest first; back() is the head block
  std::vector<Slot> slots_;    // power-of-two size, at most half full
  std::vector<KeyQueue> queues_;
  std::vector<std::uint32_t> free_queues_;
  std::vector<std::uint32_t> seal_queues_;  // Seal's scratch, capacity kept
  std::size_t live_keys_ = 0;
  std::size_t sealed_count_ = 0;
  std::size_t total_count_ = 0;
  Time max_seen_ts_ = 0;
};

}  // namespace sjoin
