#include "src/shm/par_free_list.h"

#include "src/common/check.h"

namespace lrpc {

ParFreeList::ParFreeList(std::string name, bool lock_free, int capacity,
                         int processors)
    : name_(std::move(name)),
      lock_free_(lock_free),
      capacity_(capacity),
      counters_(processors) {
  LRPC_CHECK(capacity > 0);
  LRPC_CHECK(processors > 0);
  slots_.reserve(static_cast<std::size_t>(capacity));
  next_ = std::make_unique<std::atomic<std::int32_t>[]>(
      static_cast<std::size_t>(capacity));
  for (int i = 0; i < capacity; ++i) {
    next_[static_cast<std::size_t>(i)].store(kEmpty,
                                             // LRPC_MO(setup-single-thread)
                                             std::memory_order_relaxed);
  }
  if (lock_free_) {
    magazine_size_ = processors;
    magazine_ = std::make_unique<MagazineSlot[]>(
        static_cast<std::size_t>(processors));
  }
  MutexLock guard(mutex_);
  free_ids_.reserve(static_cast<std::size_t>(capacity));
}

void ParFreeList::Register(AStackRef ref) {
  LRPC_CHECK(ref.valid());
  LRPC_CHECK(registered() < capacity_);
  const auto id = static_cast<std::int32_t>(slots_.size());
  if (bases_.empty() || bases_.back().region != ref.region) {
    bases_.push_back({ref.region, id - ref.index});
  }
  LRPC_CHECK(NodeOf(ref) == id);
  slots_.push_back(ref);
  // Single-threaded setup: seed the free set through the normal paths so
  // the initial head chain is exactly what a sequence of pushes builds.
  if (lock_free_) {
    // LRPC_MO(setup-single-thread)
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    next_[static_cast<std::size_t>(id)].store(UnpackIndex(head),
                                              // LRPC_MO(setup-single-thread)
                                              std::memory_order_relaxed);
    // LRPC_MO(setup-single-thread)
    head_.store(Pack(UnpackTag(head) + 1, id), std::memory_order_relaxed);
  } else {
    MutexLock guard(mutex_);
    free_ids_.push_back(id);
  }
}

std::int32_t ParFreeList::NodeOf(AStackRef ref) const {
  for (const RegionBase& base : bases_) {
    if (base.region == ref.region) {
      return base.base + ref.index;
    }
  }
  return kEmpty;
}

Result<AStackRef> ParFreeList::Pop(Processor& cpu,
                                   SimDuration charge_while_held) {
  if (charge_while_held > 0) {
    cpu.Charge(CostCategory::kClientStub, charge_while_held);
  }
  const int me = cpu.id();
  if (lock_free_) {
    // The common case: the A-stack this processor pushed last, on a line
    // only a stealer ever writes.
    std::int32_t id =
        me >= 0 && me < magazine_size_
            ? TakeFrom(magazine_[static_cast<std::size_t>(me)].word)
            : kEmpty;
    while (id == kEmpty) {
      id = PopStack(me);
      if (id == kEmpty) {
        id = Steal(me);
      }
      if (id == kEmpty && Exhausted()) {
        return Status(ErrorCode::kAStacksExhausted);
      }
    }
    counters_.Add(me, kPops);
    return slots_[static_cast<std::size_t>(id)];
  }
  MutexLock guard(mutex_);
  if (free_ids_.empty()) {
    return Status(ErrorCode::kAStacksExhausted);
  }
  const std::int32_t id = free_ids_.back();
  free_ids_.pop_back();
  counters_.Add(me, kPops);
  return slots_[static_cast<std::size_t>(id)];
}

void ParFreeList::Push(Processor& cpu, AStackRef ref,
                       SimDuration charge_while_held) {
  if (charge_while_held > 0) {
    cpu.Charge(CostCategory::kClientStub, charge_while_held);
  }
  const std::int32_t id = NodeOf(ref);
  LRPC_CHECK(id >= 0 && id < registered());
  const int me = cpu.id();
  if (lock_free_) {
    std::int32_t spill = id;
    if (me >= 0 && me < magazine_size_) {
      std::atomic<std::uint64_t>& word =
          magazine_[static_cast<std::size_t>(me)].word;
      // LRPC_MO(cas-seed)
      std::uint64_t seen = word.load(std::memory_order_relaxed);
      // Release publishes this owner's writes to the A-stack to whoever
      // takes it out of the slot (this processor's next pop or a stealer).
      // Acquire makes this thread the owner of the A-stack it displaces,
      // so the spill's release below re-publishes that A-stack's writes.
      while (!word.compare_exchange_weak(seen, Pack(UnpackTag(seen) + 1, id),
                                         std::memory_order_acq_rel,
                                         // LRPC_MO(cas-failure-reload)
                                         std::memory_order_relaxed)) {
      }
      spill = UnpackIndex(seen);
    }
    if (spill != kEmpty) {
      PushStack(me, spill);
    }
    counters_.Add(me, kPushes);
    return;
  }
  MutexLock guard(mutex_);
  free_ids_.push_back(id);
  counters_.Add(me, kPushes);
}

std::int32_t ParFreeList::PopStack(int cpu) {
  std::uint64_t head = head_.load(std::memory_order_acquire);
  for (;;) {
    const std::int32_t index = UnpackIndex(head);
    if (index < 0) {
      return kEmpty;
    }
    // A rival may pop `index` and push it back before our exchange; the
    // stale next value cannot win then, because the tag has moved on.
    const std::int32_t next =
        next_[static_cast<std::size_t>(index)].load(
            std::memory_order_relaxed);  // LRPC_MO(treiber-next)
    // Success is the acquire edge: it orders this thread after the push
    // that freed `index`, covering the A-stack and linkage it now owns.
    // The FAILURE ordering must also be acquire — it cannot be relaxed,
    // because the head value a failed exchange hands back is what the
    // next iteration's next_[index] read keys off. That read happens
    // BEFORE the eventually-successful exchange, so the success edge
    // cannot retroactively order it; only an acquire on the load that
    // observed `index` at the head guarantees the read sees the next
    // pointer its pusher stored (docs/fast_path.md, rejected relaxation).
    if (head_.compare_exchange_weak(head, Pack(UnpackTag(head) + 1, next),
                                    std::memory_order_acquire,
                                    std::memory_order_acquire)) {
      return index;
    }
    counters_.Add(cpu, kCasRetries);
  }
}

void ParFreeList::PushStack(int cpu, std::int32_t id) {
  // LRPC_MO(cas-seed)
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  for (;;) {
    next_[static_cast<std::size_t>(id)].store(UnpackIndex(head),
                                              // LRPC_MO(treiber-next)
                                              std::memory_order_relaxed);
    // Release publishes every write this owner made to the A-stack and
    // its linkage; the next pop's acquire picks them up.
    if (head_.compare_exchange_weak(head, Pack(UnpackTag(head) + 1, id),
                                    std::memory_order_release,
                                    // LRPC_MO(cas-failure-reload)
                                    std::memory_order_relaxed)) {
      return;
    }
    counters_.Add(cpu, kCasRetries);
  }
}

std::int32_t ParFreeList::TakeFrom(std::atomic<std::uint64_t>& word) {
  // A stale empty read only sends the caller on to the stack, the other
  // slots and the exhaustion census, which re-reads the word.
  // LRPC_MO(cas-seed)
  std::uint64_t seen = word.load(std::memory_order_relaxed);
  while (UnpackIndex(seen) >= 0) {
    // Acquire on success pairs with the release of the push that parked
    // the A-stack: the taker owns everything its last owner wrote.
    if (word.compare_exchange_weak(seen, Pack(UnpackTag(seen) + 1, kEmpty),
                                   std::memory_order_acquire,
                                   // LRPC_MO(cas-failure-reload)
                                   std::memory_order_relaxed)) {
      return UnpackIndex(seen);
    }
  }
  return kEmpty;
}

std::int32_t ParFreeList::Steal(int cpu) {
  for (int i = 0; i < magazine_size_; ++i) {
    if (i == cpu) {
      continue;
    }
    const std::int32_t id = TakeFrom(magazine_[static_cast<std::size_t>(i)].word);
    if (id != kEmpty) {
      return id;
    }
  }
  return kEmpty;
}

// A single look at the stack and the slots can miss every A-stack while one
// is always free: an owner refills a slot the scan has passed while another
// empties one the scan has yet to reach. Exhaustion is therefore reported
// only when two censuses both find nothing free and agree on the sum of the
// tags. Every change to the head or a slot advances that word's tag, so
// equal sums mean no word changed between its two reads, and at the instant
// between the censuses no A-stack was free anywhere — k A-stacks still admit
// k claims. A displaced A-stack on its way to the stack is covered too: its
// pusher's slot holds the displacing A-stack meanwhile.
bool ParFreeList::Exhausted() const {
  bool any_free = false;
  const std::uint64_t first = Census(&any_free);
  if (any_free) {
    return false;
  }
  const std::uint64_t second = Census(&any_free);
  return !any_free && first == second;
}

std::uint64_t ParFreeList::Census(bool* any_free) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tags = UnpackTag(head);
  bool found = UnpackIndex(head) >= 0;
  for (int i = 0; i < magazine_size_; ++i) {
    const std::uint64_t word =
        magazine_[static_cast<std::size_t>(i)].word.load(
            std::memory_order_acquire);
    tags += UnpackTag(word);
    found = found || UnpackIndex(word) >= 0;
  }
  *any_free = found;
  return tags;
}

std::vector<AStackRef> ParFreeList::Snapshot() const {
  std::vector<AStackRef> out;
  if (lock_free_) {
    for (int i = 0; i < magazine_size_; ++i) {
      const std::int32_t parked =
          UnpackIndex(magazine_[static_cast<std::size_t>(i)].word.load(
              std::memory_order_relaxed));  // LRPC_MO(quiescent-audit)
      if (parked != kEmpty) {
        out.push_back(slots_[static_cast<std::size_t>(parked)]);
      }
    }
    std::int32_t index = UnpackIndex(head_.load(std::memory_order_acquire));
    while (index >= 0) {
      out.push_back(slots_[static_cast<std::size_t>(index)]);
      index = next_[static_cast<std::size_t>(index)].load(
          std::memory_order_relaxed);  // LRPC_MO(quiescent-audit)
    }
    return out;
  }
  MutexLock guard(mutex_);
  for (auto it = free_ids_.rbegin(); it != free_ids_.rend(); ++it) {
    out.push_back(slots_[static_cast<std::size_t>(*it)]);
  }
  return out;
}

}  // namespace lrpc
