// The seqlock index behind the kernel's Binding Object table
// (docs/concurrency.md).
//
// Binding validation sits on the call leg of every LRPC (Section 3.2), so
// under real host threads it must not funnel through a table-wide lock.
// BindingTable keeps one of these as its private index: an entry per
// binding id, sharded by id for writers, with a per-entry sequence counter:
//
//   reader    load seq (acquire); odd -> a writer is mid-update, retry;
//             read nonce/holder/revoked; reload seq (acquire); a changed
//             value means the entry mutated underfoot, retry
//   writer    take the shard mutex, bump seq to odd (release), write the
//             fields, bump seq back to even (release)
//
// seq == 0 marks an empty slot, so publication of a new entry is the final
// even store and readers can never observe half-written fields. The fields
// themselves are relaxed atomics — the seq protocol provides the ordering,
// the atomicity only keeps the individual loads untorn — which keeps the
// scheme exact under ThreadSanitizer rather than "benign-race" folklore.
//
// Entries live in fixed-size chunks that never move once allocated: a
// fixed directory holds the chunk pointers, each published with release
// when the first id in it is added, so the index grows without ever
// resizing storage a reader may be walking.
//
// The mutating operations (add, revoke) are the uncommon cases; validation,
// the per-call operation, takes no lock in lock-free mode. The single-mutex
// variant is kept behind `lock_free` as the contention baseline
// bench_mt_throughput compares against.

#ifndef SRC_KERN_SHARDED_BINDING_TABLE_H_
#define SRC_KERN_SHARDED_BINDING_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/per_cpu.h"
#include "src/common/thread_annotations.h"
#include "src/common/ids.h"
#include "src/common/status.h"

namespace lrpc {

struct BindingObject;
struct BindingRecord;

class ShardedBindingTable {
 public:
  // Writer shards of the kernel's table.
  static constexpr int kShards = 16;

  struct Options {
    int shards = kShards;
    bool lock_free = true;
  };

  // `processors` sizes the per-processor counter blocks; validations from
  // a caller with no processor index in range count in a shared block.
  ShardedBindingTable() : ShardedBindingTable(Options()) {}
  explicit ShardedBindingTable(Options options, int processors = 0);
  ~ShardedBindingTable();

  ShardedBindingTable(const ShardedBindingTable&) = delete;
  ShardedBindingTable& operator=(const ShardedBindingTable&) = delete;

  // Publishes one entry; `record` stays owned by the caller. Thread-safe
  // against concurrent Validate. kInvalidArgument for an id already
  // present or beyond the directory's reach.
  Status AddEntry(BindingId id, std::uint64_t nonce, DomainId client,
                  bool revoked, BindingRecord* record);

  // Call-leg validation: forged (unknown id, nonce mismatch, wrong holder)
  // and revoked detection, same statuses as BindingTable::Validate. `cpu`
  // is the caller's Processor::id(), which indexes the counters only.
  Result<BindingRecord*> Validate(const BindingObject& object, DomainId caller,
                                  int cpu = kNoProcessor) const;

  // Validate through the calling thread's binding cache (docs/fast_path.md):
  // a repeat call through the same (binding, caller) pair skips the seqlock
  // read entirely when the table's generation has not moved since the cached
  // full validation. Every mutation (AddEntry, Revoke) bumps the generation
  // with release; the cache probe loads it with acquire, so a thread that
  // has observed a revocation by any means can never hit a stale entry.
  // Same statuses as Validate.
  Result<BindingRecord*> ValidateCached(const BindingObject& object,
                                        DomainId caller,
                                        int cpu = kNoProcessor) const;

  // The same verdict with no side effects: no counters, no cache fill.
  Result<BindingRecord*> CheckValidate(const BindingObject& object,
                                       DomainId caller) const;

  // Marks `id` revoked. Thread-safe against concurrent Validate.
  void Revoke(BindingId id);

  // Monotonic mutation counter; cached validations are tagged with it.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Selects the lock-free read or the single-lock baseline. Only while no
  // other thread uses the table (the engine's adoption, before workers).
  void set_lock_free(bool lock_free) { options_.lock_free = lock_free; }
  // Counters, summed over the per-processor blocks. Full seqlock reads:
  std::uint64_t validations() const { return counters_.Sum(kValidations); }
  // Times a reader saw an odd or moved sequence and went around again.
  std::uint64_t seq_retries() const { return counters_.Sum(kSeqRetries); }
  // ValidateCached probes answered without touching the seqlock.
  std::uint64_t cache_hits() const { return counters_.Sum(kCacheHits); }

  // Per-shard slot occupancy, for shard-balance assertions at fleet scale
  // (tests/scale_test.cc). Counts stable (even, non-zero seq) entries with
  // acquire loads; exact when no writer is mid-update, a snapshot otherwise.
  struct Occupancy {
    std::vector<std::size_t> per_shard;  // Occupied slots, by shard index.
    std::size_t total = 0;
    std::size_t min_shard = 0;  // Smallest per-shard count.
    std::size_t max_shard = 0;  // Largest per-shard count.
  };
  Occupancy MeasureOccupancy() const;

 private:
  // One line per entry: Validate's seqlock read walks seq, the fields, then
  // seq again — all on a single cache line — and a writer revoking one
  // binding invalidates only that binding's line in rival caches
  // (docs/fast_path.md layout audit).
  struct LRPC_CACHELINE_ALIGNED Entry {
    // 0 = empty; odd = writer mid-update; even > 0 = stable.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> nonce{0};
    std::atomic<DomainId> client{kNoDomain};
    std::atomic<bool> revoked{false};
    std::atomic<BindingRecord*> record{nullptr};
  };
  static_assert(sizeof(Entry) == kCacheLineSize,
                "binding-table entry layout audit: one line per entry");

  // 256 ids per chunk (16 KiB), 1024 chunks: room for 262144 bindings,
  // for an 8 KiB directory and one chunk per 256 bindings actually made.
  static constexpr std::size_t kChunkEntries = 256;
  static constexpr std::size_t kMaxChunks = 1024;

  // The entry for `id`, or null when its chunk was never allocated.
  Entry* FindEntry(BindingId id) const;
  // The entry for `id`, allocating and publishing its chunk if needed;
  // null beyond the directory.
  Entry* EntryForWrite(BindingId id);
  Mutex& shard_mutex(BindingId id) const {
    return shards_[static_cast<std::size_t>(
        id % static_cast<BindingId>(options_.shards))];
  }
  enum Counter : std::size_t {
    kValidations,
    kSeqRetries,
    kCacheHits,
    kCounterCount
  };

  // The shared seqlock read behind Validate and CheckValidate; `counted`
  // selects whether retries feed seq_retries() (in `cpu`'s block).
  Result<BindingRecord*> Read(const BindingObject& object, DomainId caller,
                              bool counted, int cpu) const;

  Options options_;
  std::atomic<Entry*> chunks_[kMaxChunks] = {};
  // Serializes chunk allocation across shards (ids of one chunk span every
  // shard); taken by AddEntry only.
  Mutex growth_mutex_;
  // Writers only (lock-free mode).
  mutable std::unique_ptr<Mutex[]> shards_;
  // The baseline's single table-wide lock (locked mode only). Locked
  // conditionally (std::unique_lock, engaged only when !lock_free), a shape
  // the static analysis cannot follow, so it stays a raw std::mutex; the
  // seqlock protocol, not a capability, is what protects the entries.
  mutable std::mutex global_mutex_;
  // The generation is read by every cached validation and written only by
  // the uncommon mutators; its own line keeps writer bumps off every
  // other line a reader touches.
  LRPC_CACHELINE_ALIGNED std::atomic<std::uint64_t> generation_{1};
  // One line per processor, written only by the thread driving it, so a
  // validation writes no line another processor writes.
  mutable PerCpuCounters<kCounterCount> counters_;
};

}  // namespace lrpc

#endif  // SRC_KERN_SHARDED_BINDING_TABLE_H_
