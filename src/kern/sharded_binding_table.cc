#include "src/kern/sharded_binding_table.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/kern/binding_table.h"

namespace lrpc {

namespace {

// The per-thread binding/validation cache (docs/fast_path.md): a small
// direct-mapped cache of fully-validated (binding, caller) pairs, tagged
// with the table generation current when the full validation ran. Strictly
// thread-private, so probes and fills need no synchronization of their own;
// the generation tag carries all cross-thread invalidation.
struct CachedValidation {
  const void* table = nullptr;  // Which table the entry came from.
  std::uint64_t generation = 0;
  BindingId id = kNoBinding;
  std::uint64_t nonce = 0;
  DomainId client = kNoDomain;
  BindingRecord* record = nullptr;
};

constexpr std::size_t kBindingCacheWays = 8;  // Power of two (index mask).

thread_local CachedValidation tls_binding_cache[kBindingCacheWays];

CachedValidation& CacheSlotFor(BindingId id) {
  return tls_binding_cache[static_cast<std::size_t>(
      static_cast<std::uint64_t>(id) & (kBindingCacheWays - 1))];
}

}  // namespace

ShardedBindingTable::ShardedBindingTable(Options options, int processors)
    : options_(options), counters_(processors) {
  LRPC_CHECK(options_.shards > 0);
  // Seed the generation from a process-wide epoch so a table constructed at
  // a freed table's address can never match a thread's cached entries from
  // the old instance (the cache keys on the table pointer + generation).
  static std::atomic<std::uint64_t> table_epoch{1};
  generation_.store(table_epoch.fetch_add(std::uint64_t{1} << 32,
                                          // LRPC_MO(unique-id)
                                          std::memory_order_relaxed),
                    std::memory_order_relaxed);  // LRPC_MO(setup-single-thread)
  shards_ = std::make_unique<Mutex[]>(static_cast<std::size_t>(options_.shards));
}

ShardedBindingTable::~ShardedBindingTable() {
  for (std::atomic<Entry*>& chunk : chunks_) {
    delete[] chunk.load(std::memory_order_acquire);
  }
}

ShardedBindingTable::Entry* ShardedBindingTable::FindEntry(
    BindingId id) const {
  if (id < 0 || static_cast<std::size_t>(id) / kChunkEntries >= kMaxChunks) {
    return nullptr;
  }
  const auto index = static_cast<std::size_t>(id);
  // Acquire pairs with the release that published the chunk, so its
  // empty entries are initialized before any of them is read.
  Entry* chunk =
      chunks_[index / kChunkEntries].load(std::memory_order_acquire);
  return chunk != nullptr ? &chunk[index % kChunkEntries] : nullptr;
}

ShardedBindingTable::Entry* ShardedBindingTable::EntryForWrite(BindingId id) {
  if (id < 0 || static_cast<std::size_t>(id) / kChunkEntries >= kMaxChunks) {
    return nullptr;
  }
  const auto index = static_cast<std::size_t>(id);
  MutexLock guard(growth_mutex_);
  std::atomic<Entry*>& slot = chunks_[index / kChunkEntries];
  Entry* chunk = slot.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    chunk = new Entry[kChunkEntries];
    slot.store(chunk, std::memory_order_release);
  }
  return &chunk[index % kChunkEntries];
}

Status ShardedBindingTable::AddEntry(BindingId id, std::uint64_t nonce,
                                     DomainId client, bool revoked,
                                     BindingRecord* record) {
  Entry* entry = EntryForWrite(id);
  if (entry == nullptr) {
    return Status(ErrorCode::kInvalidArgument,
                  "binding id beyond the table's capacity");
  }
  std::unique_lock<std::mutex> global;
  if (!options_.lock_free) {
    global = std::unique_lock<std::mutex>(global_mutex_);
  }
  MutexLock guard(shard_mutex(id));
  // LRPC_MO(seqlock-writer-seq)
  const std::uint64_t seq = entry->seq.load(std::memory_order_relaxed);
  if (seq != 0) {
    return Status(ErrorCode::kInvalidArgument, "binding id already present");
  }
  // Odd first: a concurrent reader retries rather than consuming a
  // half-written entry; the final even store publishes it.
  entry->seq.store(seq + 1, std::memory_order_release);
  // LRPC_MO(seqlock-field)
  entry->nonce.store(nonce, std::memory_order_relaxed);
  // LRPC_MO(seqlock-field)
  entry->client.store(client, std::memory_order_relaxed);
  // LRPC_MO(seqlock-field)
  entry->revoked.store(revoked, std::memory_order_relaxed);
  // LRPC_MO(seqlock-field)
  entry->record.store(record, std::memory_order_relaxed);
  entry->seq.store(seq + 2, std::memory_order_release);
  // Release AFTER the entry is published: a cached validator that observes
  // the new generation (acquire) therefore observes the entry too.
  generation_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Result<BindingRecord*> ShardedBindingTable::Validate(
    const BindingObject& object, DomainId caller, int cpu) const {
  counters_.Add(cpu, kValidations);
  return Read(object, caller, /*counted=*/true, cpu);
}

Result<BindingRecord*> ShardedBindingTable::CheckValidate(
    const BindingObject& object, DomainId caller) const {
  return Read(object, caller, /*counted=*/false, kNoProcessor);
}

Result<BindingRecord*> ShardedBindingTable::Read(const BindingObject& object,
                                                 DomainId caller, bool counted,
                                                 int cpu) const {
  const Entry* entry = FindEntry(object.id);
  if (entry == nullptr) {
    return Status(ErrorCode::kForgedBinding, "binding id out of range");
  }
  std::unique_lock<std::mutex> global;
  if (!options_.lock_free) {
    global = std::unique_lock<std::mutex>(global_mutex_);
  }
  for (;;) {
    const std::uint64_t s1 = entry->seq.load(std::memory_order_acquire);
    if (s1 == 0) {
      return Status(ErrorCode::kForgedBinding, "binding id out of range");
    }
    if ((s1 & 1) != 0) {
      if (counted) {
        counters_.Add(cpu, kSeqRetries);
      }
      continue;
    }
    // LRPC_MO(seqlock-field)
    const std::uint64_t nonce = entry->nonce.load(std::memory_order_relaxed);
    // LRPC_MO(seqlock-field)
    const DomainId client = entry->client.load(std::memory_order_relaxed);
    // LRPC_MO(seqlock-field)
    const bool revoked = entry->revoked.load(std::memory_order_relaxed);
    // LRPC_MO(seqlock-field)
    BindingRecord* record = entry->record.load(std::memory_order_relaxed);
    const std::uint64_t s2 = entry->seq.load(std::memory_order_acquire);
    if (s1 != s2) {
      if (counted) {
        counters_.Add(cpu, kSeqRetries);
      }
      continue;
    }
    if (nonce != object.nonce) {
      return Status(ErrorCode::kForgedBinding, "nonce mismatch");
    }
    if (client != caller) {
      return Status(ErrorCode::kForgedBinding,
                    "binding held by another domain");
    }
    if (revoked) {
      return Status(ErrorCode::kRevokedBinding);
    }
    return record;
  }
}

Result<BindingRecord*> ShardedBindingTable::ValidateCached(
    const BindingObject& object, DomainId caller, int cpu) const {
  CachedValidation& slot = CacheSlotFor(object.id);
  // Acquire pairs with the mutators' release bumps: observing a generation
  // value orders this thread after every entry write that preceded the
  // bump, so a full validation run under `gen` can be safely re-used for
  // as long as the generation stays at `gen`.
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (slot.table == this && slot.generation == gen && slot.id == object.id &&
      slot.nonce == object.nonce && slot.client == caller) {
    counters_.Add(cpu, kCacheHits);
    return slot.record;
  }
  Result<BindingRecord*> result = Validate(object, caller, cpu);
  if (result.ok()) {
    // Tagged with the generation loaded BEFORE the full validation: if a
    // mutation slipped in between, the tag is conservatively old and the
    // next probe revalidates — a stale success can never be cached under a
    // newer generation than the validation actually observed.
    slot.table = this;
    slot.generation = gen;
    slot.id = object.id;
    slot.nonce = object.nonce;
    slot.client = caller;
    slot.record = *result;
  } else if (slot.table == this && slot.id == object.id) {
    // Drop a now-refuted entry so a same-generation probe cannot revive it.
    slot.table = nullptr;
  }
  return result;
}

ShardedBindingTable::Occupancy ShardedBindingTable::MeasureOccupancy() const {
  Occupancy occ;
  occ.per_shard.assign(static_cast<std::size_t>(options_.shards), 0);
  for (std::size_t c = 0; c < kMaxChunks; ++c) {
    const Entry* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      continue;
    }
    for (std::size_t i = 0; i < kChunkEntries; ++i) {
      const std::uint64_t seq = chunk[i].seq.load(std::memory_order_acquire);
      if (seq != 0 && (seq & 1) == 0) {
        const std::size_t id = c * kChunkEntries + i;
        ++occ.per_shard[id % static_cast<std::size_t>(options_.shards)];
        ++occ.total;
      }
    }
  }
  occ.min_shard = occ.per_shard[0];
  occ.max_shard = occ.per_shard[0];
  for (std::size_t count : occ.per_shard) {
    occ.min_shard = std::min(occ.min_shard, count);
    occ.max_shard = std::max(occ.max_shard, count);
  }
  return occ;
}

void ShardedBindingTable::Revoke(BindingId id) {
  Entry* entry = FindEntry(id);
  if (entry == nullptr) {
    return;
  }
  std::unique_lock<std::mutex> global;
  if (!options_.lock_free) {
    global = std::unique_lock<std::mutex>(global_mutex_);
  }
  MutexLock guard(shard_mutex(id));
  // LRPC_MO(seqlock-writer-seq)
  const std::uint64_t seq = entry->seq.load(std::memory_order_relaxed);
  if (seq == 0) {
    return;
  }
  entry->seq.store(seq + 1, std::memory_order_release);
  // LRPC_MO(seqlock-field)
  entry->revoked.store(true, std::memory_order_relaxed);
  entry->seq.store(seq + 2, std::memory_order_release);
  // The bump must be release and must FOLLOW the entry update: a reader
  // that acquires the new generation value is then ordered after the
  // revoked store, so its revalidation cannot cache the old entry under
  // the new generation (docs/fast_path.md has the full argument).
  generation_.fetch_add(1, std::memory_order_release);
}

}  // namespace lrpc
