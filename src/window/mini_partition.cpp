#include "window/mini_partition.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace sjoin {

MiniPartition::MiniPartition(std::size_t block_capacity)
    : block_capacity_(block_capacity),
      // Room for one block's worth of distinct keys at half load: the common
      // case (a freshly split / freshly created mini-partition) fills at
      // least a head block before tuning reshapes it, and sizing for it
      // avoids a cascade of doublings on every such group's first batch.
      min_slots_(std::bit_ceil(2 * block_capacity)),
      slots_(min_slots_) {
  assert(block_capacity > 0);
}

Block& MiniPartition::HeadBlock() {
  if (blocks_.empty() || blocks_.back().Full()) {
    blocks_.emplace_back(block_capacity_);
  }
  return blocks_.back();
}

void MiniPartition::Insert(const Rec& rec) {
  assert(rec.ts >= max_seen_ts_);
  HeadBlock().Append(rec);
  ++total_count_;
  max_seen_ts_ = rec.ts;
}

bool MiniPartition::HeadFull() const {
  return !blocks_.empty() && blocks_.back().Full() &&
         blocks_.back().FreshCount() > 0;
}

std::span<const Rec> MiniPartition::FreshRecords() const {
  if (blocks_.empty()) return {};
  return blocks_.back().FreshRecords();
}

std::size_t MiniPartition::FreshCount() const {
  return blocks_.empty() ? 0 : blocks_.back().FreshCount();
}

void MiniPartition::Seal() {
  if (blocks_.empty()) return;
  Block& head = blocks_.back();
  const std::span<const Rec> fresh = head.FreshRecords();
  // Index the batch in stages -- home slots, then queues, then queue tails
  // -- prefetching each stage's loads a whole batch ahead, instead of one
  // chain of dependent cache misses per record.
  for (const Rec& rec : fresh) __builtin_prefetch(&slots_[HomeSlot(rec.key)]);
  seal_queues_.clear();
  for (const Rec& rec : fresh) {
    const std::uint32_t q = QueueFor(rec.key);
    seal_queues_.push_back(q);
    __builtin_prefetch(&queues_[q]);
  }
  for (std::uint32_t q : seal_queues_) {
    const KeyQueue& kq = queues_[q];
    __builtin_prefetch(kq.ts.data() + kq.ts.size(), /*rw=*/1);
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    AppendTs(queues_[seal_queues_[i]], fresh[i].ts);
  }
  sealed_count_ += head.FreshCount();
  head.MarkJoined();
}

void MiniPartition::AppendTs(KeyQueue& q, Time ts) {
  assert(q.ts.size() == q.head || q.ts.back() <= ts);
  q.ts.push_back(ts);
}

std::uint32_t MiniPartition::QueueFor(std::uint64_t key) {
  std::size_t mask = slots_.size() - 1;
  std::size_t i = HomeSlot(key);
  while (slots_[i].queue != kNoQueue && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  if (slots_[i].queue != kNoQueue) return slots_[i].queue;
  // New key. Keep the table at most half full so probe runs stay short.
  if ((live_keys_ + 1) * 2 > slots_.size()) {
    ResizeTable(slots_.size() * 2);
    mask = slots_.size() - 1;
    i = HomeSlot(key);
    while (slots_[i].queue != kNoQueue) i = (i + 1) & mask;
  }
  std::uint32_t q;
  if (!free_queues_.empty()) {
    q = free_queues_.back();
    free_queues_.pop_back();
  } else {
    q = static_cast<std::uint32_t>(queues_.size());
    queues_.emplace_back();
  }
  slots_[i] = Slot{key, q};
  ++live_keys_;
  return q;
}

std::size_t MiniPartition::FindSlot(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = HomeSlot(key);; i = (i + 1) & mask) {
    if (slots_[i].queue == kNoQueue) return slots_.size();
    if (slots_[i].key == key) return i;
  }
}

void MiniPartition::EraseSlot(std::size_t i) {
  // Backward-shift deletion: walk the probe run after the hole and move back
  // every entry whose home slot does not lie cyclically in (hole, entry], so
  // that every remaining key is still reachable from its home slot without
  // tombstones.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j].queue != kNoQueue;
       j = (j + 1) & mask) {
    const std::size_t home = HomeSlot(slots_[j].key);
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
}

void MiniPartition::ResizeTable(std::size_t slot_count) {
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slot_count));
  const std::size_t mask = slot_count - 1;
  for (const Slot& s : old) {
    if (s.queue == kNoQueue) continue;
    std::size_t i = HomeSlot(s.key);
    while (slots_[i].queue != kNoQueue) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

std::span<const Time> MiniPartition::ProbeSealed(std::uint64_t key,
                                                 Time min_ts,
                                                 Time max_ts) const {
  const std::size_t slot = FindSlot(key);
  if (slot == slots_.size()) return {};
  const KeyQueue& q = queues_[slots_[slot].queue];
  // Most probes match the key's whole live range: sealed records are older
  // than the probe, and the oldest is inside its window for 79% of the
  // probes that find their key on perfbench's probe_heavy (97% wire_heavy,
  // 51% ckpt_heavy). Test both ends before binary-searching the queue.
  auto begin = q.ts.begin() + static_cast<std::ptrdiff_t>(q.head);
  auto lo = *begin >= min_ts ? begin
                             : std::lower_bound(begin, q.ts.end(), min_ts);
  auto hi = q.ts.back() <= max_ts ? q.ts.end()
                                  : std::upper_bound(lo, q.ts.end(), max_ts);
  auto n = static_cast<std::size_t>(hi - lo);
  if (n == 0) return {};
  return std::span<const Time>(&*lo, n);
}

std::vector<Block> MiniPartition::ExpireBlocks(Time low_ts) {
  std::vector<Block> expired;
  // The head block never expires: it is the insertion point and its fresh
  // records have not probed yet.
  while (blocks_.size() > 1 && blocks_.front().MaxTs() < low_ts) {
    Block& b = blocks_.front();
    for (const Rec& rec : b.Records()) {
      const std::size_t slot = FindSlot(rec.key);
      assert(slot != slots_.size());
      const std::uint32_t qi = slots_[slot].queue;
      KeyQueue& q = queues_[qi];
      assert(q.head < q.ts.size() && q.ts[q.head] == rec.ts);
      ++q.head;
      if (q.head == q.ts.size()) {
        // The key is dead: pool its queue and empty its slot. A queue that
        // grew long for a hot key gives its buffer back rather than pin it
        // in the pool.
        q.ts.clear();
        q.head = 0;
        if (q.ts.capacity() > kPooledQueueCapacity) {
          std::vector<Time>().swap(q.ts);
        }
        free_queues_.push_back(qi);
        EraseSlot(slot);
        --live_keys_;
      } else if (q.head > 64 && q.head * 2 > q.ts.size()) {
        // Compact the dead prefix once it dominates the vector.
        q.ts.erase(q.ts.begin(), q.ts.begin() + static_cast<std::ptrdiff_t>(q.head));
        q.head = 0;
      }
    }
    sealed_count_ -= b.Size();
    total_count_ -= b.Size();
    expired.push_back(std::move(b));
    blocks_.pop_front();
  }
  if (!expired.empty()) MaybeShrinkIndex();
  return expired;
}

void MiniPartition::MaybeShrinkIndex() {
  // Dead keys are erased eagerly above, but the table keeps its slots and
  // the pool its queues: after a burst expires, a partition could hold a
  // huge empty table and a pool of idle queues forever. The table shrinks
  // once live keys occupy < 1/8 of its slots (with a floor so steady-state
  // partitions never churn), down to a quarter-full table. The pool is cut
  // to the live keys whenever that happens, and also whenever its idle
  // queues outnumber both the live keys and one block's worth of keys (the
  // floor keeps a steady stream of deaths and births from recompacting).
  // Live queues are moved, not copied, so their buffers -- and any
  // outstanding ProbeSealed span -- stay where they are.
  const bool shrink_table =
      slots_.size() > 1024 && live_keys_ * 8 < slots_.size();
  const bool trim_pool =
      free_queues_.size() > std::max(live_keys_, min_slots_ / 2);
  if (!shrink_table && !trim_pool) return;
  if (shrink_table) {
    ResizeTable(std::max(min_slots_, std::bit_ceil(live_keys_ * 4)));
  }
  std::vector<KeyQueue> pooled = std::exchange(queues_, {});
  queues_.reserve(live_keys_);
  for (Slot& s : slots_) {
    if (s.queue == kNoQueue) continue;
    queues_.push_back(std::move(pooled[s.queue]));
    s.queue = static_cast<std::uint32_t>(queues_.size() - 1);
  }
  free_queues_.clear();
  free_queues_.shrink_to_fit();
}

void MiniPartition::InstallSealed(const Rec& rec) {
  assert(rec.ts >= max_seen_ts_);
  Block& head = HeadBlock();
  head.Append(rec);
  head.MarkJoined();
  AppendTs(queues_[QueueFor(rec.key)], rec.ts);
  ++sealed_count_;
  ++total_count_;
  max_seen_ts_ = rec.ts;
}

}  // namespace sjoin
