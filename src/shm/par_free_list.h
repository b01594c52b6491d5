// Host-parallel A-stack free lists (the real-thread engine's contended
// structure; docs/concurrency.md).
//
// The paper guards each per-interface A-stack free list with "a single lock"
// and argues that the fine granularity is what lets call throughput scale
// with processors (Sections 3.3, 3.4). Under the real-thread engine the free
// list is popped and pushed by concurrent host threads on every call and
// return, so it is implemented twice over the same fixed node set:
//
//   lock-free  a Treiber stack whose 64-bit head packs {tag:32, index:32};
//              the tag advances on every successful exchange, so a node that
//              is popped and pushed back between a rival's head load and its
//              compare-exchange cannot make the rival's stale next pointer
//              win (the ABA case)
//   locked     the paper's single-lock baseline, kept behind a flag as the
//              contention reference for bench_mt_throughput
//
// In lock-free mode a one-entry magazine per processor sits in front of the
// Treiber stack, so a caller that pops and pushes on the same processor never
// writes a line another processor writes:
//
//   push   exchanges the A-stack into the caller's own slot; the A-stack it
//          displaces (if any) spills onto the Treiber stack
//   pop    takes the caller's own slot first, then the Treiber stack, and
//          on an empty stack steals from other processors' slots by
//          exchange before it reports kAStacksExhausted
//
// The slot always holds the most recently pushed A-stack, so a single
// caller still sees the simulated queue's LIFO order, and stealing means a
// list of k A-stacks still admits k simultaneous claims. Slot words carry
// a tag like the head, advanced by every change, so exhaustion is reported
// only on a consistent view: two censuses of the head and every slot that
// find nothing free and agree on the sum of the tags (see Exhausted).
//
// Ownership transfer is the synchronization: a successful pop acquires
// everything the previous owner released with its push — through the head
// compare-exchange or through a slot exchange. That edge is why the
// A-stack bytes, the linkage record and the E-stack association need no
// atomics of their own — exactly one thread owns them between a pop and the
// matching push.
//
// Nodes are registered once, single-threaded, before the first concurrent
// operation, and are never freed; the list only recirculates them.

#ifndef SRC_SHM_PAR_FREE_LIST_H_
#define SRC_SHM_PAR_FREE_LIST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/per_cpu.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/shm/astack.h"
#include "src/sim/processor.h"

namespace lrpc {

class ParFreeList {
 public:
  // `capacity` bounds Register calls; the node array is sized once so no
  // operation ever reallocates shared storage. `processors` is the
  // machine's processor count: it sizes the magazine (lock-free mode) and
  // the per-processor counters, indexed by Processor::id().
  ParFreeList(std::string name, bool lock_free, int capacity, int processors);

  // Setup, single-threaded: registers `ref` as the next node and places it
  // on the free list. Registration must follow each region's index order
  // (the order Import fills AStackQueue), so single-thread pops agree with
  // the simulated queue's LIFO discipline.
  void Register(AStackRef ref);

  // Pops the most recently pushed A-stack (the caller's own magazine slot
  // first), or kAStacksExhausted once neither the stack nor any slot holds
  // one. The charge mirrors AStackQueue::Pop so the cost ledger keeps its
  // Table 5 shape.
  Result<AStackRef> Pop(Processor& cpu, SimDuration charge_while_held = 0);
  void Push(Processor& cpu, AStackRef ref, SimDuration charge_while_held = 0);

  bool lock_free() const { return lock_free_; }
  const std::string& name() const { return name_; }
  int capacity() const { return capacity_; }
  int registered() const { return static_cast<int>(slots_.size()); }
  // Every node ever registered, in registration order (conservation audits).
  const std::vector<AStackRef>& nodes() const { return slots_; }

  // The free set right now — every magazine slot that holds an A-stack,
  // then the Treiber chain — each A-stack once. Only meaningful when no
  // concurrent operations are in flight (post-run audits).
  std::vector<AStackRef> Snapshot() const;

  // Contention counters, summed over the per-processor blocks (approximate
  // while threads run).
  std::uint64_t pops() const { return counters_.Sum(kPops); }
  std::uint64_t pushes() const { return counters_.Sum(kPushes); }
  std::uint64_t cas_retries() const { return counters_.Sum(kCasRetries); }
  // Tag of the current head; each successful exchange on the Treiber stack
  // advances it (tests use it to observe the ABA counter, and to show that
  // a caller served by its own magazine slot never touches the head).
  std::uint32_t head_tag() const {
    // LRPC_MO(quiescent-audit)
    return UnpackTag(head_.load(std::memory_order_relaxed));
  }

 private:
  static constexpr std::int32_t kEmpty = -1;
  enum Counter : std::size_t { kPops, kPushes, kCasRetries, kCounterCount };

  static std::uint64_t Pack(std::uint32_t tag, std::int32_t index) {
    return (std::uint64_t{tag} << 32) |
           std::uint64_t{static_cast<std::uint32_t>(index)};
  }
  static std::uint32_t UnpackTag(std::uint64_t head) {
    return static_cast<std::uint32_t>(head >> 32);
  }
  static std::int32_t UnpackIndex(std::uint64_t head) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(head));
  }

  std::int32_t NodeOf(AStackRef ref) const;
  // The Treiber stack's own pop and push; `cpu` indexes the retry counter.
  std::int32_t PopStack(int cpu);
  void PushStack(int cpu, std::int32_t id);
  // Empties a magazine slot word, returning the A-stack it held or kEmpty.
  static std::int32_t TakeFrom(std::atomic<std::uint64_t>& word);
  // Takes an A-stack out of another processor's slot; kEmpty when every
  // other slot is empty.
  std::int32_t Steal(int cpu);
  // True only if, at some instant during the call, neither the stack nor
  // any slot held an A-stack.
  bool Exhausted() const;
  // Sum of the head's and every slot's tag; sets `*any_free` when one of
  // them holds an A-stack.
  std::uint64_t Census(bool* any_free) const;

  std::string name_;
  bool lock_free_;
  int capacity_;
  std::vector<AStackRef> slots_;  // Node id -> A-stack; fixed after setup.
  // Region -> id of its first node; regions register their nodes in index
  // order, so NodeOf is base + index. Read-only after setup.
  struct RegionBase {
    const AStackRegion* region;
    std::int32_t base;
  };
  std::vector<RegionBase> bases_;

  // Lock-free state. The head is the CAS target of every pop and push, so
  // it owns a cache line outright: before the layout audit it shared a line
  // with the statistics counters below, and every relaxed counter bump
  // forced the next rival's compare-exchange to re-fetch the line
  // (docs/fast_path.md).
  LRPC_CACHELINE_ALIGNED std::atomic<std::uint64_t> head_{Pack(0, kEmpty)};
  std::unique_ptr<std::atomic<std::int32_t>[]> next_;

  // The magazine: one slot per processor (lock-free mode; none in the
  // locked baseline), each on its own line, written by its processor's
  // pushes and pops and only by a rival that steals from it. The word
  // packs {tag:32, index:32} like the head.
  struct LRPC_CACHELINE_ALIGNED MagazineSlot {
    std::atomic<std::uint64_t> word{Pack(0, kEmpty)};
  };
  static_assert(sizeof(MagazineSlot) == kCacheLineSize,
                "free-list layout audit: one line per magazine slot");
  int magazine_size_ = 0;
  std::unique_ptr<MagazineSlot[]> magazine_;

  // Locked-baseline state.
  mutable Mutex mutex_;
  std::vector<std::int32_t> free_ids_ LRPC_GUARDED_BY(mutex_);

  // Statistics: one line per processor, so bumping them never invalidates
  // head_ or a rival's line.
  PerCpuCounters<kCounterCount> counters_;
};

static_assert(sizeof(std::atomic<std::uint64_t>) == 8);

}  // namespace lrpc

#endif  // SRC_SHM_PAR_FREE_LIST_H_
