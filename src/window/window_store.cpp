#include "window/window_store.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace sjoin {

namespace {

[[noreturn]] void ThrowOutOfRange(PartitionId pid, std::size_t num_partitions) {
  throw std::out_of_range("WindowStore: pid " + std::to_string(pid) +
                          " >= num_partitions " +
                          std::to_string(num_partitions));
}

}  // namespace

PartitionGroup& WindowStore::Ensure(PartitionId pid) {
  if (pid >= groups_.size()) ThrowOutOfRange(pid, groups_.size());
  auto& slot = groups_[pid];
  if (!slot) {
    slot = std::make_unique<PartitionGroup>(cfg_, tuple_bytes_);
    slot->AttachCounters(obs_splits_, obs_merges_);
    ++group_count_;
  }
  return *slot;
}

std::unique_ptr<PartitionGroup> WindowStore::Take(PartitionId pid) {
  assert(Find(pid) != nullptr);
  --group_count_;
  return std::move(groups_[pid]);
}

void WindowStore::Install(PartitionId pid,
                          std::unique_ptr<PartitionGroup> group) {
  if (pid >= groups_.size()) ThrowOutOfRange(pid, groups_.size());
  assert(Find(pid) == nullptr);
  group->AttachCounters(obs_splits_, obs_merges_);
  groups_[pid] = std::move(group);
  ++group_count_;
}

void WindowStore::SetGroupCounters(obs::Counter* splits, obs::Counter* merges) {
  obs_splits_ = splits;
  obs_merges_ = merges;
  ForEachGroup([&](PartitionId, PartitionGroup& group) {
    group.AttachCounters(splits, merges);
  });
}

std::vector<PartitionId> WindowStore::OwnedPartitions() const {
  std::vector<PartitionId> out;
  out.reserve(group_count_);
  ForEachGroup([&](PartitionId pid, const PartitionGroup&) { out.push_back(pid); });
  return out;
}

std::size_t WindowStore::TotalCount() const {
  std::size_t n = 0;
  ForEachGroup([&](PartitionId, const PartitionGroup& group) {
    n += group.TotalCount();
  });
  return n;
}

}  // namespace sjoin
