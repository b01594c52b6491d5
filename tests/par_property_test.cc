// Property tests for the real-thread engine (docs/concurrency.md):
//
//   - the Treiber free list and the single-lock baseline are linearizable
//     against a reference LIFO over seeded operation sequences, seeded
//     mixes over several processors' magazine slots conserve the free set,
//     and concurrent pops never hand the same A-stack to two claimants
//   - the kernel table's validation (cached and side-effect-free alike)
//     agrees with its records over seeded table populations
//   - a single-worker ParallelMachine is call-for-call identical to the
//     deterministic simulator: same statuses, same results, same clock

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "src/kern/binding_table.h"
#include "src/par/par_world.h"
#include "src/shm/par_free_list.h"

namespace lrpc {
namespace {

constexpr int kSeeds = 200;

TEST(ParFreeListProperty, SeededSequencesMatchReferenceLifo) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
    Machine machine(MachineModel::CVaxFirefly(), 1);
    Processor& cpu = machine.processor(0);
    const int count = 1 + static_cast<int>(rng() % 8);
    AStackRegion region(DomainId{0}, DomainId{1}, 128, count,
                        /*secondary=*/false);

    ParFreeList lock_free("prop.lf", /*lock_free=*/true, count,
                          /*processors=*/1);
    ParFreeList locked("prop.lk", /*lock_free=*/false, count,
                       /*processors=*/1);
    std::vector<AStackRef> model;  // Reference LIFO (back = top).
    for (int i = 0; i < count; ++i) {
      lock_free.Register(AStackRef{&region, i});
      locked.Register(AStackRef{&region, i});
      model.push_back(AStackRef{&region, i});
    }

    std::vector<AStackRef> held;
    for (int op = 0; op < 64; ++op) {
      const bool push = !held.empty() && (rng() % 2 == 0);
      if (push) {
        const std::size_t pick = rng() % held.size();
        const AStackRef ref = held[pick];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
        lock_free.Push(cpu, ref);
        locked.Push(cpu, ref);
        model.push_back(ref);
      } else {
        Result<AStackRef> a = lock_free.Pop(cpu);
        Result<AStackRef> b = locked.Pop(cpu);
        ASSERT_EQ(a.ok(), b.ok()) << "seed " << seed << " op " << op;
        if (model.empty()) {
          ASSERT_EQ(a.code(), ErrorCode::kAStacksExhausted);
          ASSERT_EQ(b.code(), ErrorCode::kAStacksExhausted);
        } else {
          ASSERT_TRUE(a.ok());
          ASSERT_TRUE(*a == model.back()) << "seed " << seed << " op " << op;
          ASSERT_TRUE(*b == model.back());
          model.pop_back();
          held.push_back(*a);
        }
      }
    }

    // Same multiset free at the end, in both implementations.
    auto key = [](const AStackRef& r) { return r.index; };
    std::vector<AStackRef> lf = lock_free.Snapshot();
    std::vector<AStackRef> lk = locked.Snapshot();
    std::vector<AStackRef> md = model;
    auto by_key = [&](const AStackRef& x, const AStackRef& y) {
      return key(x) < key(y);
    };
    std::sort(lf.begin(), lf.end(), by_key);
    std::sort(lk.begin(), lk.end(), by_key);
    std::sort(md.begin(), md.end(), by_key);
    ASSERT_EQ(lf.size(), md.size()) << "seed " << seed;
    for (std::size_t i = 0; i < md.size(); ++i) {
      ASSERT_TRUE(lf[i] == md[i]) << "seed " << seed;
      ASSERT_TRUE(lk[i] == md[i]) << "seed " << seed;
    }
  }
}

TEST(ParFreeListProperty, SeededProcessorMixesConserveAndStealBeforeExhausting) {
  // Pops and pushes on randomly chosen processors, so A-stacks sit in
  // several magazine slots at once: a pop fails only when no A-stack is
  // free anywhere, and the free set always equals the reference's.
  constexpr int kProcessors = 4;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed) + 500);
    Machine machine(MachineModel::CVaxFirefly(), kProcessors);
    const int count = 1 + static_cast<int>(rng() % 6);
    AStackRegion region(DomainId{0}, DomainId{1}, 64, count,
                        /*secondary=*/false);
    ParFreeList list("prop.mix", /*lock_free=*/true, count, kProcessors);
    for (int i = 0; i < count; ++i) {
      list.Register(AStackRef{&region, i});
    }
    std::vector<int> free_set(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      free_set[static_cast<std::size_t>(i)] = i;
    }
    std::vector<AStackRef> held;
    for (int op = 0; op < 96; ++op) {
      Processor& cpu =
          machine.processor(static_cast<int>(rng() % kProcessors));
      if (!held.empty() && rng() % 2 == 0) {
        const std::size_t pick = rng() % held.size();
        const AStackRef ref = held[pick];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
        list.Push(cpu, ref);
        free_set.push_back(ref.index);
      } else {
        Result<AStackRef> ref = list.Pop(cpu);
        ASSERT_EQ(ref.ok(), !free_set.empty()) << "seed " << seed << " op "
                                               << op;
        if (ref.ok()) {
          auto it = std::find(free_set.begin(), free_set.end(), ref->index);
          ASSERT_NE(it, free_set.end()) << "seed " << seed << " op " << op;
          free_set.erase(it);
          held.push_back(*ref);
        }
      }
      std::vector<int> snapshot;
      for (const AStackRef& ref : list.Snapshot()) {
        snapshot.push_back(ref.index);
      }
      std::vector<int> expected = free_set;
      std::sort(snapshot.begin(), snapshot.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(snapshot, expected) << "seed " << seed << " op " << op;
    }
  }
}

TEST(ParFreeListProperty, ConcurrentPopsNeverDoubleClaim) {
  // 4 threads race to pop every node; ownership must partition the set.
  Machine machine(MachineModel::CVaxFirefly(), 4);
  constexpr int kNodes = 64;
  constexpr int kThreads = 4;
  AStackRegion region(DomainId{0}, DomainId{1}, 64, kNodes,
                      /*secondary=*/false);
  ParFreeList list("prop.race", /*lock_free=*/true, kNodes,
                   machine.processor_count());
  for (int i = 0; i < kNodes; ++i) {
    list.Register(AStackRef{&region, i});
  }

  std::vector<std::vector<AStackRef>> claimed(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Processor& cpu = machine.processor(t);
      while (true) {
        Result<AStackRef> ref = list.Pop(cpu);
        if (!ref.ok()) {
          break;
        }
        claimed[static_cast<std::size_t>(t)].push_back(*ref);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<int> seen(kNodes, 0);
  std::size_t total = 0;
  for (const auto& per_thread : claimed) {
    total += per_thread.size();
    for (const AStackRef& ref : per_thread) {
      ++seen[static_cast<std::size_t>(ref.index)];
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kNodes));
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "node " << i;
  }
  EXPECT_EQ(list.Snapshot().size(), 0u);
}

TEST(ParFreeListProperty, ConcurrentStealsConserveAndNeverFail) {
  // k claimants on a list of k A-stacks, each holding at most one at a
  // time: some A-stack is always free, so no pop may fail, and none may be
  // handed to two claimants. Claimant t pops on processor 2t and pushes on
  // processor 2t + 1, so every A-stack is parked in a slot its next
  // claimant does not own and every pop after the first few must steal —
  // while other claimants empty and refill the slots the steal scan walks.
  // (The windows where a single look at the slots would report a false
  // exhaustion are too narrow to hit reliably here; MagazineModel in
  // model_check_test.cc enumerates them.)
  constexpr int kClaimants = 4;
  constexpr int kRounds = 20000;
  Machine machine(MachineModel::CVaxFirefly(), 2 * kClaimants);
  AStackRegion region(DomainId{0}, DomainId{1}, 64, kClaimants,
                      /*secondary=*/false);
  ParFreeList list("prop.steal", /*lock_free=*/true, kClaimants,
                   machine.processor_count());
  for (int i = 0; i < kClaimants; ++i) {
    list.Register(AStackRef{&region, i});
  }
  std::vector<int> failures(kClaimants, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClaimants; ++t) {
    threads.emplace_back([&, t] {
      Processor& popper = machine.processor(2 * t);
      Processor& pusher = machine.processor(2 * t + 1);
      // Start together, so the claimants really race.
      ready.fetch_add(1);
      while (ready.load() < kClaimants) {
      }
      for (int round = 0; round < kRounds; ++round) {
        Result<AStackRef> ref = list.Pop(popper);
        if (!ref.ok()) {
          ++failures[static_cast<std::size_t>(t)];
          continue;
        }
        list.Push(pusher, *ref);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int t = 0; t < kClaimants; ++t) {
    EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << "claimant " << t;
  }
  EXPECT_EQ(list.Snapshot().size(), static_cast<std::size_t>(kClaimants));
  EXPECT_EQ(list.pops(), list.pushes());
}

TEST(ShardedTableProperty, SeededPopulationsAgreeWithCheckValidate) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed) + 1000);
    BindingTable table(static_cast<std::uint64_t>(seed) * 977 + 13);
    const int records = 1 + static_cast<int>(rng() % 12);
    std::vector<BindingObject> objects;
    for (int i = 0; i < records; ++i) {
      const auto client = static_cast<DomainId>(rng() % 8);
      const auto server = static_cast<DomainId>(rng() % 8);
      BindingRecord& rec = table.Create(client, server, InterfaceId{0},
                                        /*pdl=*/nullptr, /*remote=*/false);
      if (rng() % 5 == 0) {
        table.Revoke(rec.id);
      }
      objects.push_back(
          BindingObject{.id = rec.id, .nonce = rec.nonce, .remote = false});
    }
    // The reference verdict, straight from the records the index serves.
    auto expected_code = [&](const BindingObject& object, DomainId caller) {
      const BindingRecord* rec = table.Find(object.id);
      if (rec == nullptr || rec->nonce != object.nonce ||
          rec->client != caller) {
        return ErrorCode::kForgedBinding;
      }
      return rec->revoked ? ErrorCode::kRevokedBinding : ErrorCode::kOk;
    };

    for (const bool lock_free : {true, false}) {
      table.set_lock_free(lock_free);
      for (int probe = 0; probe < 64; ++probe) {
        BindingObject object = objects[rng() % objects.size()];
        auto caller = table.Find(object.id)->client;
        switch (rng() % 5) {
          case 0:
            object.nonce ^= 1 + rng() % 7;  // Forged nonce.
            break;
          case 1:
            caller = static_cast<DomainId>(rng() % 8);  // Maybe wrong holder.
            break;
          case 2:
            object.id += static_cast<BindingId>(records + rng() % 64);
            break;
          default:
            break;  // Honest probe.
        }
        const ErrorCode expected = expected_code(object, caller);
        ASSERT_EQ(table.CheckValidate(object, caller).code(), expected)
            << "seed " << seed << " probe " << probe
            << " lock_free=" << lock_free;
        Result<BindingRecord*> got = table.Validate(object, caller);
        ASSERT_EQ(got.code(), expected)
            << "seed " << seed << " probe " << probe
            << " lock_free=" << lock_free;
        if (got.ok()) {
          ASSERT_EQ(*got, table.Find(object.id));
        }
      }
    }
  }
}

TEST(ShardedTableProperty, ConcurrentRevocationNeverReadsTorn) {
  // Readers race a revoker. The seqlock must never let a validation observe
  // a half-written entry: every verdict is ok or revoked, never forged —
  // through the cached validation and the uncached read alike.
  BindingTable table(42);
  constexpr int kRecords = 32;
  std::vector<BindingObject> objects;
  for (int i = 0; i < kRecords; ++i) {
    BindingRecord& rec = table.Create(DomainId{1}, DomainId{2}, InterfaceId{0},
                                      nullptr, false);
    objects.push_back(
        BindingObject{.id = rec.id, .nonce = rec.nonce, .remote = false});
  }

  std::vector<std::thread> readers;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> forged{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::mt19937 rng(7);
      while (!stop.load(std::memory_order_relaxed)) {
        const BindingObject& object = objects[rng() % objects.size()];
        const ErrorCode cached = table.Validate(object, DomainId{1}).code();
        const ErrorCode read = table.CheckValidate(object, DomainId{1}).code();
        for (const ErrorCode code : {cached, read}) {
          if (code != ErrorCode::kOk && code != ErrorCode::kRevokedBinding) {
            forged.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int i = 0; i < kRecords; ++i) {
    table.Revoke(objects[static_cast<std::size_t>(i)].id);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(forged.load(), 0u);
  for (const BindingObject& object : objects) {
    EXPECT_EQ(table.Validate(object, DomainId{1}).code(),
              ErrorCode::kRevokedBinding);
  }
}

TEST(BackendEquivalenceProperty, SingleWorkerMatchesSimulatorCallForCall) {
  for (int seed = 0; seed < 50; ++seed) {
    ParWorldOptions par_options;
    par_options.workers = 1;
    par_options.parked = 1;
    par_options.backend = RuntimeBackend::kParallelHost;
    ParWorldOptions sim_options = par_options;
    sim_options.backend = RuntimeBackend::kDeterministicSim;
    ParWorld par(par_options);
    ParWorld sim(sim_options);

    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed) + 500);
    for (int call = 0; call < 12; ++call) {
      CallStats par_stats;
      CallStats sim_stats;
      Status par_status = Status::Ok();
      Status sim_status = Status::Ok();
      switch (rng() % 4) {
        case 0: {
          par_status = par.CallNull(0, &par_stats);
          sim_status = sim.CallNull(0, &sim_stats);
          break;
        }
        case 1: {
          const auto a = static_cast<std::int32_t>(rng());
          const auto b = static_cast<std::int32_t>(rng());
          std::int32_t par_sum = 0;
          std::int32_t sim_sum = 0;
          par_status = par.CallAdd(0, a, b, &par_sum, &par_stats);
          sim_status = sim.CallAdd(0, a, b, &sim_sum, &sim_stats);
          ASSERT_EQ(par_sum, sim_sum) << "seed " << seed;
          break;
        }
        case 2: {
          std::uint8_t data[kParBigSize];
          for (auto& byte : data) {
            byte = static_cast<std::uint8_t>(rng());
          }
          par_status = par.CallBigIn(0, data, &par_stats);
          sim_status = sim.CallBigIn(0, data, &sim_stats);
          break;
        }
        default: {
          std::uint8_t in[kParBigSize];
          std::uint8_t par_out[kParBigSize] = {};
          std::uint8_t sim_out[kParBigSize] = {};
          for (auto& byte : in) {
            byte = static_cast<std::uint8_t>(rng());
          }
          par_status = par.CallBigInOut(0, in, par_out, &par_stats);
          sim_status = sim.CallBigInOut(0, in, sim_out, &sim_stats);
          for (std::size_t i = 0; i < kParBigSize; ++i) {
            ASSERT_EQ(par_out[i], sim_out[i]) << "seed " << seed;
          }
          break;
        }
      }
      ASSERT_EQ(par_status.code(), sim_status.code())
          << "seed " << seed << " call " << call;
      ASSERT_EQ(par_stats.exchanged_on_call, sim_stats.exchanged_on_call)
          << "seed " << seed << " call " << call;
      ASSERT_EQ(par_stats.astack_bytes, sim_stats.astack_bytes);
      ASSERT_EQ(par.machine().processor(0).clock(),
                sim.machine().processor(0).clock())
          << "seed " << seed << " call " << call
          << ": the engines' cost accounting diverged";
    }
    ASSERT_EQ(par.server_calls_seen(), sim.server_calls_seen());
    ASSERT_TRUE(par.par()->AuditConservation().ok());
  }
}

// Every kernel event, in the order the kernel fired it.
class EventLog : public KernelEventListener {
 public:
  void OnKernelEvent(Kernel&, KernelEventKind kind) override {
    events.push_back(kind);
  }
  std::vector<KernelEventKind> events;
};

TEST(BackendEquivalenceProperty, SingleWorkerKernelEventsMatchTheSimulator) {
  // SingleWorkerMatchesSimulatorCallForCall's seeded plan, observed
  // through a listener on each world: both engines run the same kernel
  // functions (binding validation, E-stack association, transfers), so
  // they announce the same events in the same order.
  for (int seed = 0; seed < 50; ++seed) {
    ParWorldOptions par_options;
    par_options.workers = 1;
    par_options.parked = 1;
    par_options.backend = RuntimeBackend::kParallelHost;
    ParWorldOptions sim_options = par_options;
    sim_options.backend = RuntimeBackend::kDeterministicSim;
    ParWorld par(par_options);
    ParWorld sim(sim_options);
    EventLog par_log;
    EventLog sim_log;
    par.kernel().set_event_listener(&par_log);
    sim.kernel().set_event_listener(&sim_log);

    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed) + 500);
    for (int call = 0; call < 12; ++call) {
      switch (rng() % 4) {
        case 0:
          ASSERT_EQ(par.CallNull(0).code(), sim.CallNull(0).code());
          break;
        case 1: {
          const auto a = static_cast<std::int32_t>(rng());
          const auto b = static_cast<std::int32_t>(rng());
          std::int32_t sum = 0;
          ASSERT_EQ(par.CallAdd(0, a, b, &sum).code(),
                    sim.CallAdd(0, a, b, &sum).code());
          break;
        }
        case 2: {
          std::uint8_t data[kParBigSize];
          for (auto& byte : data) {
            byte = static_cast<std::uint8_t>(rng());
          }
          ASSERT_EQ(par.CallBigIn(0, data).code(),
                    sim.CallBigIn(0, data).code());
          break;
        }
        default: {
          std::uint8_t in[kParBigSize];
          std::uint8_t out[kParBigSize] = {};
          for (auto& byte : in) {
            byte = static_cast<std::uint8_t>(rng());
          }
          ASSERT_EQ(par.CallBigInOut(0, in, out).code(),
                    sim.CallBigInOut(0, in, out).code());
          break;
        }
      }
    }
    ASSERT_FALSE(sim_log.events.empty());
    ASSERT_EQ(par_log.events.size(), sim_log.events.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < sim_log.events.size(); ++i) {
      ASSERT_EQ(par_log.events[i], sim_log.events[i])
          << "seed " << seed << " event " << i
          << ": par=" << KernelEventKindName(par_log.events[i])
          << " sim=" << KernelEventKindName(sim_log.events[i]);
    }
  }
}

}  // namespace
}  // namespace lrpc
