// Property tests for the per-thread binding validation cache
// (ShardedBindingTable::ValidateCached, docs/fast_path.md): a revoked or
// rebound binding must never be served from a stale cache entry — under
// single-thread protocols, under the cross-thread flag protocol the
// generation acquire/release pairing guarantees, and under seeded chaos
// schedules with real threads (the test suite's TSan configuration runs
// these and must stay clean).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "src/kern/sharded_binding_table.h"
#include "src/par/par_world.h"

namespace lrpc {
namespace {

BindingObject ObjectFor(BindingId id, std::uint64_t nonce) {
  BindingObject object;
  object.id = id;
  object.nonce = nonce;
  return object;
}

class BindingCacheTest : public ::testing::TestWithParam<bool> {
 protected:
  ShardedBindingTable::Options OptionsForMode() {
    ShardedBindingTable::Options options;
    options.lock_free = GetParam();
    options.shards = 4;
    return options;
  }
};

TEST_P(BindingCacheTest, CachedValidationMatchesFullValidation) {
  ShardedBindingTable table(OptionsForMode());
  BindingRecord record;
  const DomainId client = 3;
  ASSERT_TRUE(table.AddEntry(7, 0xabcd, client, false, &record).ok());

  const BindingObject object = ObjectFor(7, 0xabcd);
  Result<BindingRecord*> full = table.Validate(object, client);
  Result<BindingRecord*> cached = table.ValidateCached(object, client);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*full, *cached);

  // The second cached probe skips the seqlock entirely.
  const std::uint64_t hits_before = table.cache_hits();
  Result<BindingRecord*> again = table.ValidateCached(object, client);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, &record);
  EXPECT_EQ(table.cache_hits(), hits_before + 1);

  // The failure taxonomy is identical through the cached entry point.
  EXPECT_EQ(table.ValidateCached(ObjectFor(7, 0xabce), client).code(),
            ErrorCode::kForgedBinding);
  EXPECT_EQ(table.ValidateCached(object, client + 1).code(),
            ErrorCode::kForgedBinding);
  EXPECT_EQ(table.ValidateCached(ObjectFor(63, 0xabcd), client).code(),
            ErrorCode::kForgedBinding);
}

TEST_P(BindingCacheTest, RevocationIsNeverServedFromTheCache) {
  ShardedBindingTable table(OptionsForMode());
  BindingRecord record;
  const DomainId client = 3;
  ASSERT_TRUE(table.AddEntry(7, 0xabcd, client, false, &record).ok());

  const BindingObject object = ObjectFor(7, 0xabcd);
  ASSERT_TRUE(table.ValidateCached(object, client).ok());
  ASSERT_TRUE(table.ValidateCached(object, client).ok());  // Cache is hot.

  table.Revoke(7);
  // The very next cached validation must see the revocation: the generation
  // bump invalidates the hot entry.
  EXPECT_EQ(table.ValidateCached(object, client).code(),
            ErrorCode::kRevokedBinding);
  // And the refuted entry cannot revive at the same generation.
  EXPECT_EQ(table.ValidateCached(object, client).code(),
            ErrorCode::kRevokedBinding);
}

TEST_P(BindingCacheTest, RebindUnderANewNonceRefusesTheOldObject) {
  // A rebind surfaces as a fresh mirror whose entry carries a new nonce
  // (imports create new bindings; the table itself refuses id reuse). The
  // cache keys on the nonce, so the old capability must miss and fail.
  auto table = std::make_unique<ShardedBindingTable>(OptionsForMode());
  BindingRecord old_record;
  const DomainId client = 3;
  ASSERT_TRUE(table->AddEntry(7, 0x1111, client, false, &old_record).ok());
  ASSERT_TRUE(table->ValidateCached(ObjectFor(7, 0x1111), client).ok());

  auto rebound = std::make_unique<ShardedBindingTable>(OptionsForMode());
  BindingRecord new_record;
  ASSERT_TRUE(rebound->AddEntry(7, 0x2222, client, false, &new_record).ok());

  Result<BindingRecord*> fresh =
      rebound->ValidateCached(ObjectFor(7, 0x2222), client);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, &new_record);
  EXPECT_EQ(rebound->ValidateCached(ObjectFor(7, 0x1111), client).code(),
            ErrorCode::kForgedBinding);
}

TEST_P(BindingCacheTest, RecreatedTableCannotAliasAnotherTablesCache) {
  // Adversarial allocator reuse: destroy a table whose entry is hot in this
  // thread's cache, then build a new table that may land at the same
  // address with the same (id, nonce, client) triple but a different
  // record. The epoch-seeded generation keeps the old cache entry from
  // matching; the new table must return its own record.
  const DomainId client = 3;
  BindingRecord first_record;
  std::uint64_t first_generation = 0;
  {
    auto first = std::make_unique<ShardedBindingTable>(OptionsForMode());
    ASSERT_TRUE(first->AddEntry(7, 0xabcd, client, false, &first_record).ok());
    Result<BindingRecord*> warm =
        first->ValidateCached(ObjectFor(7, 0xabcd), client);
    ASSERT_TRUE(warm.ok());
    first_generation = first->generation();
  }
  for (int i = 0; i < 8; ++i) {
    auto reborn = std::make_unique<ShardedBindingTable>(OptionsForMode());
    BindingRecord reborn_record;
    ASSERT_TRUE(
        reborn->AddEntry(7, 0xabcd, client, false, &reborn_record).ok());
    EXPECT_NE(reborn->generation(), first_generation);
    Result<BindingRecord*> hit =
        reborn->ValidateCached(ObjectFor(7, 0xabcd), client);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(*hit, &reborn_record);
  }
}

TEST_P(BindingCacheTest, ObservedRevocationIsNeverStaleAcrossThreads) {
  // The flag protocol the generation ordering guarantees: once a thread has
  // observed a revocation by ANY means (here an acquire-loaded flag the
  // revoker set after revoking), its cached validations must fail. A stale
  // success after the flag is a memory-ordering bug, not bad luck.
  ShardedBindingTable table(OptionsForMode());
  BindingRecord record;
  const DomainId client = 3;
  ASSERT_TRUE(table.AddEntry(7, 0xabcd, client, false, &record).ok());

  std::atomic<bool> revoked_flag{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> pre_flag_successes{0};

  std::thread observer([&] {
    const BindingObject object = ObjectFor(7, 0xabcd);
    for (int i = 0; i < 200000; ++i) {
      const bool observed = revoked_flag.load(std::memory_order_acquire);
      Result<BindingRecord*> result = table.ValidateCached(object, client);
      if (observed) {
        if (result.ok()) {
          violations.fetch_add(1, std::memory_order_relaxed);
        } else {
          break;  // Property held on the first post-flag validation.
        }
      } else if (result.ok()) {
        pre_flag_successes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread revoker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    table.Revoke(7);
    revoked_flag.store(true, std::memory_order_release);
  });
  observer.join();
  revoker.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(pre_flag_successes.load(), 0u);
}

TEST_P(BindingCacheTest, SeededChaosRevocationScheduleNeverServesStale) {
  // Seeded chaos: worker threads hammer cached validations over a set of
  // bindings while a mutator revokes them one by one on a seeded schedule,
  // publishing each revocation to a per-id flag after the fact. Workers
  // check the flag BEFORE validating; flagged ids must never validate ok.
  constexpr int kBindings = 16;
  constexpr int kWorkers = 3;
  ShardedBindingTable table(OptionsForMode());
  std::vector<BindingRecord> records(kBindings);
  const DomainId client = 3;
  for (int id = 0; id < kBindings; ++id) {
    ASSERT_TRUE(table
                    .AddEntry(id, 0x1000u + static_cast<std::uint64_t>(id),
                              client, false, &records[static_cast<std::size_t>(id)])
                    .ok());
  }

  std::vector<std::atomic<bool>> revoked(kBindings);
  for (auto& flag : revoked) {
    flag.store(false, std::memory_order_relaxed);
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> checked{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937 rng(static_cast<unsigned>(1989 + w));
      std::uniform_int_distribution<int> pick(0, kBindings - 1);
      while (!done.load(std::memory_order_relaxed)) {
        const int id = pick(rng);
        const bool observed =
            revoked[static_cast<std::size_t>(id)].load(std::memory_order_acquire);
        Result<BindingRecord*> result = table.ValidateCached(
            ObjectFor(id, 0x1000u + static_cast<std::uint64_t>(id)), client);
        if (observed) {
          checked.fetch_add(1, std::memory_order_relaxed);
          if (result.ok()) {
            violations.fetch_add(1, std::memory_order_relaxed);
          } else if (result.code() != ErrorCode::kRevokedBinding) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (result.ok() &&
                   *result != &records[static_cast<std::size_t>(id)]) {
          // A success must return exactly the record registered for the id.
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::mt19937 schedule(19892026);
  std::vector<int> order(kBindings);
  for (int id = 0; id < kBindings; ++id) {
    order[static_cast<std::size_t>(id)] = id;
  }
  std::shuffle(order.begin(), order.end(), schedule);
  for (int id : order) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    table.Revoke(id);
    revoked[static_cast<std::size_t>(id)].store(true,
                                                std::memory_order_release);
  }
  // Let the workers observe the fully-revoked table for a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) {
    t.join();
  }

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(checked.load(), 0u) << "chaos schedule never exercised the flag";
}

INSTANTIATE_TEST_SUITE_P(BothModes, BindingCacheTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "LockFree" : "Locked";
                         });

TEST(BindingCacheEndToEnd, RevokedBindingStopsParallelCallsImmediately) {
  // End-to-end through the runtime: workers make calls through the kernel
  // table's cached validation; the main thread revokes the binding
  // mid-run and raises a flag. Any call that STARTED after the flag was
  // observed must fail with kRevokedBinding — the per-thread cache cannot
  // keep a revoked binding callable.
  ParWorldOptions options;
  options.workers = 2;
  options.domains = 1;
  ParWorld world(options);
  ASSERT_NE(world.par(), nullptr);

  const BindingId id = world.worker_binding(0).object().id;
  std::atomic<bool> revoked_flag{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> post_flag_calls{0};

  std::thread revoker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    world.par()->bindings().Revoke(id);
    revoked_flag.store(true, std::memory_order_release);
  });

  ParallelMachine::RunReport report = world.par()->RunWorkers(
      std::chrono::milliseconds(120), [&](int w) {
        const bool observed = revoked_flag.load(std::memory_order_acquire);
        const Status status = world.CallNull(w);
        if (observed) {
          post_flag_calls.fetch_add(1, std::memory_order_relaxed);
          if (status.code() != ErrorCode::kRevokedBinding) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Revoked calls are the expected outcome late in the run; report
        // success so the engine keeps the workers looping.
        return Status::Ok();
      });
  revoker.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(post_flag_calls.load(), 0u);
  EXPECT_GT(report.calls, 0u);
}

}  // namespace
}  // namespace lrpc
