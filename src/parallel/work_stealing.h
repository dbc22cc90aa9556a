#ifndef PMBE_PARALLEL_WORK_STEALING_H_
#define PMBE_PARALLEL_WORK_STEALING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/common.h"

/// \file
/// The work-stealing substrate of the parallel driver: per-worker
/// Chase–Lev deques holding encoded subtree tasks, plus the task encoding
/// shared with the scheduler in parallel_mbe.cc.
///
/// Why not the shared-counter loop? The per-vertex subtree decomposition
/// is heavily skewed on real bipartite graphs: one hub subtree can hold
/// most of the enumeration work, and whichever worker claims it serializes
/// the tail of the run while every other worker idles. Work stealing fixes
/// the *distribution* half of that problem (idle workers take queued tasks
/// from busy ones); intra-subtree task splitting (SubtreeWorker::
/// EnumerateShard, see parallel_mbe.h) fixes the *granularity* half by
/// sharding a heavy subtree's top-level candidate loop into independently
/// executable tasks.
///
/// The deque is the Chase–Lev design in the formulation of Lê et al.,
/// "Correct and Efficient Work-Stealing for Weak Memory Models" (PPoPP
/// 2013): the owner pushes and pops at the *bottom* (LIFO, cache-warm),
/// thieves CAS the *top* (FIFO, oldest task first). All shared state is
/// accessed through std::atomic — there are no fence-published plain
/// loads — so ThreadSanitizer can verify the protocol (the TSan leg of
/// scripts/check.sh runs the deque stress tests on every CI pass).

namespace mbe {

/// One unit of enumeration work, encoded into a single 64-bit word so the
/// deque slots can be lock-free std::atomic<uint64_t>:
///   bits [32, 64): subtree seed vertex v
///   bits [16, 32): shard index within the subtree's split
///   bits [ 0, 16): total shards of the split (1 = unsplit subtree)
struct StealTask {
  VertexId v = 0;
  uint32_t shard = 0;
  uint32_t num_shards = 1;
};

inline constexpr uint32_t kMaxTaskShards = 0xffff;

constexpr uint64_t EncodeTask(const StealTask& task) {
  PMBE_DCHECK(task.num_shards >= 1 && task.num_shards <= kMaxTaskShards);
  PMBE_DCHECK(task.shard < task.num_shards);
  return (static_cast<uint64_t>(task.v) << 32) |
         (static_cast<uint64_t>(task.shard & 0xffff) << 16) |
         static_cast<uint64_t>(task.num_shards & 0xffff);
}

constexpr StealTask DecodeTask(uint64_t word) {
  StealTask task;
  task.v = static_cast<VertexId>(word >> 32);
  task.shard = static_cast<uint32_t>((word >> 16) & 0xffff);
  task.num_shards = static_cast<uint32_t>(word & 0xffff);
  return task;
}

// The frontier snapshot file format (snapshot/frontier.h) persists these
// words verbatim, so the 32/16/16 packing is an on-disk contract now, not
// just an in-memory convenience. Pin it.
static_assert(EncodeTask({.v = 0xdeadbeefu, .shard = 0x1234u,
                          .num_shards = 0xffffu}) == 0xdeadbeef1234ffffULL,
              "task packing must stay v:[32,64) shard:[16,32) k:[0,16)");
static_assert(DecodeTask(0xdeadbeef1234ffffULL).v == 0xdeadbeefu &&
                  DecodeTask(0xdeadbeef1234ffffULL).shard == 0x1234u &&
                  DecodeTask(0xdeadbeef1234ffffULL).num_shards == 0xffffu,
              "task unpacking must invert the packing bit-exactly");

/// Chase–Lev work-stealing deque of encoded tasks.
///
/// Thread roles: exactly one *owner* thread may call Push/Pop; any number
/// of *thief* threads may call Steal concurrently. The owner works LIFO
/// at the bottom; thieves take the oldest task at the top, so with
/// heaviest-last seeding the owner starts on its heaviest subtree while
/// thieves drain the light tail.
///
/// Slots are packed 8 to a cache line: the owner and a thief only touch
/// neighbouring slots when the deque is nearly empty, while a padded slot
/// per line costs 64 bytes per queued task — every concurrent job on a
/// shared runtime keeps one deque per worker.
class TaskDeque {
 public:
  /// `capacity_hint` sizes the initial ring (rounded up to a power of
  /// two). Push grows the ring when full; retired rings are kept alive
  /// until destruction so a racing thief never reads freed memory.
  explicit TaskDeque(size_t capacity_hint = 64);

  /// Owner only: appends a task at the bottom, growing if needed.
  void Push(uint64_t task);

  /// Owner only: takes the most recently pushed task. Returns false when
  /// the deque is empty (including losing the last-element race to a
  /// thief).
  bool Pop(uint64_t* task);

  /// Thieves: takes the oldest task. Returns false when empty or when the
  /// CAS race against the owner/another thief is lost (the caller just
  /// retries elsewhere; spurious failure is part of the protocol).
  bool Steal(uint64_t* task);

  /// Approximate size; safe from any thread (used for split heuristics
  /// and stats only).
  size_t SizeEstimate() const;

 private:
  struct Slot {
    std::atomic<uint64_t> word{0};
  };

  struct Ring {
    explicit Ring(size_t capacity)
        : mask(capacity - 1), slots(new Slot[capacity]) {}
    size_t capacity() const { return mask + 1; }
    uint64_t Load(int64_t i) const {
      return slots[static_cast<size_t>(i) & mask].word.load(
          std::memory_order_relaxed);
    }
    void Store(int64_t i, uint64_t word) {
      slots[static_cast<size_t>(i) & mask].word.store(
          word, std::memory_order_relaxed);
    }
    const size_t mask;
    std::unique_ptr<Slot[]> slots;
  };

  /// Owner only: doubles the ring, copying live tasks. The old ring is
  /// retired (kept allocated) rather than freed: a thief that loaded the
  /// old ring pointer may still read a stale slot, then fail its top CAS
  /// and retry against the new ring.
  void Grow(Ring* ring, int64_t bottom, int64_t top);

  alignas(64) std::atomic<int64_t> top_{0};
  alignas(64) std::atomic<int64_t> bottom_{0};
  alignas(64) std::atomic<Ring*> ring_;
  std::vector<std::unique_ptr<Ring>> rings_;  ///< current + retired (owner)
};

}  // namespace mbe

#endif  // PMBE_PARALLEL_WORK_STEALING_H_
