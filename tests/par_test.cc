// Unit tests for the real-thread engine's building blocks: the lock-free
// (and locked-baseline) A-stack free lists and their per-processor
// magazines, the idle-processor claim registry, the kernel's binding table
// under both of its read modes, and the ParallelMachine facade over an
// adopted world — including that its common path writes no shared line
// (docs/concurrency.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/kern/binding_table.h"
#include "src/lrpc/testbed.h"
#include "src/par/par_world.h"
#include "src/par/parallel_machine.h"
#include "src/shm/par_free_list.h"
#include "src/sim/idle_registry.h"

namespace lrpc {
namespace {

class ParFreeListTest : public ::testing::TestWithParam<bool> {};

TEST_P(ParFreeListTest, PopsInLifoOrderAndReportsExhaustion) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Processor& cpu = machine.processor(0);
  AStackRegion region(DomainId{0}, DomainId{1}, 256, 3, /*secondary=*/false);
  ParFreeList list("test.group0", /*lock_free=*/GetParam(), /*capacity=*/3,
                   /*processors=*/1);
  for (int i = 0; i < 3; ++i) {
    list.Register(AStackRef{&region, i});
  }
  ASSERT_EQ(list.registered(), 3);

  // LIFO: the most recently registered node comes off first.
  Result<AStackRef> a = list.Pop(cpu);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->index, 2);
  Result<AStackRef> b = list.Pop(cpu);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->index, 1);
  Result<AStackRef> c = list.Pop(cpu);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->index, 0);
  EXPECT_EQ(list.Pop(cpu).code(), ErrorCode::kAStacksExhausted);

  // Push recirculates: a returned node is the next one popped.
  list.Push(cpu, *b);
  Result<AStackRef> again = list.Pop(cpu);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->index, 1);
  // Counters track successful exchanges; the empty pop does not count.
  EXPECT_EQ(list.pops(), 4u);
  EXPECT_EQ(list.pushes(), 1u);
}

TEST_P(ParFreeListTest, SnapshotIsTheFreeSet) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Processor& cpu = machine.processor(0);
  AStackRegion region(DomainId{0}, DomainId{1}, 256, 4, /*secondary=*/false);
  ParFreeList list("test.snapshot", GetParam(), 4, /*processors=*/1);
  for (int i = 0; i < 4; ++i) {
    list.Register(AStackRef{&region, i});
  }
  Result<AStackRef> taken = list.Pop(cpu);
  ASSERT_TRUE(taken.ok());

  std::vector<AStackRef> frees = list.Snapshot();
  EXPECT_EQ(frees.size(), 3u);
  for (const AStackRef& ref : frees) {
    EXPECT_FALSE(ref == *taken);
  }
  list.Push(cpu, *taken);
  EXPECT_EQ(list.Snapshot().size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, ParFreeListTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "LockFree" : "Locked";
                         });

TEST(ParFreeListAba, HeadTagAdvancesOnEveryExchange) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Processor& cpu = machine.processor(0);
  AStackRegion region(DomainId{0}, DomainId{1}, 256, 2, /*secondary=*/false);
  ParFreeList list("test.aba", /*lock_free=*/true, 2, /*processors=*/1);
  list.Register(AStackRef{&region, 0});
  list.Register(AStackRef{&region, 1});

  // Node 1 is at the head. Both pops come off the Treiber stack (the
  // magazine slot starts empty), each advancing the tag.
  const std::uint32_t tag0 = list.head_tag();
  Result<AStackRef> first = list.Pop(cpu);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->index, 1);
  const std::uint32_t tag1 = list.head_tag();
  EXPECT_NE(tag0, tag1);
  Result<AStackRef> second = list.Pop(cpu);
  ASSERT_TRUE(second.ok());
  const std::uint32_t tag2 = list.head_tag();
  EXPECT_NE(tag1, tag2);
  // The first push parks node 1 in the processor's slot: no exchange on
  // the head, so the tag stays.
  list.Push(cpu, *first);
  EXPECT_EQ(list.head_tag(), tag2);
  // The ABA case: the second push displaces node 1, which spills back onto
  // the stack. The head points at the same node as at tag0, but the tag
  // has moved — a rival's stale compare-exchange from before this round
  // cannot win.
  list.Push(cpu, *second);
  EXPECT_NE(list.head_tag(), tag2);
  EXPECT_NE(list.head_tag(), tag1);
  EXPECT_NE(list.head_tag(), tag0);
}

// A list of k A-stacks admits exactly k outstanding claims even while
// other processors' magazine slots hold some of them: a pop that finds the
// stack empty steals from the slots before it reports exhaustion.
TEST(ParFreeListMagazine, KAStacksAdmitKClaimsWhileOtherSlotsHoldSome) {
  constexpr int kProcessors = 4;
  constexpr int kAStacks = 4;
  Machine machine(MachineModel::CVaxFirefly(), kProcessors);
  AStackRegion region(DomainId{0}, DomainId{1}, 64, kAStacks,
                      /*secondary=*/false);
  ParFreeList list("test.magazine", /*lock_free=*/true, kAStacks,
                   kProcessors);
  for (int i = 0; i < kAStacks; ++i) {
    list.Register(AStackRef{&region, i});
  }
  auto sorted_indices = [](std::vector<AStackRef> refs) {
    std::vector<int> out;
    for (const AStackRef& ref : refs) {
      out.push_back(ref.index);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<int> all = {0, 1, 2, 3};

  // Processors 1..3 each pop and push one A-stack: it parks in their slot,
  // leaving one A-stack on the Treiber stack.
  for (int p = 1; p < kProcessors; ++p) {
    Processor& cpu = machine.processor(p);
    Result<AStackRef> ref = list.Pop(cpu);
    ASSERT_TRUE(ref.ok());
    list.Push(cpu, *ref);
  }
  // Snapshot counts slot-held A-stacks exactly once.
  EXPECT_EQ(sorted_indices(list.Snapshot()), all);

  // Processor 0 claims all k: one from the stack, three stolen.
  Processor& cpu0 = machine.processor(0);
  std::vector<AStackRef> claimed;
  for (int i = 0; i < kAStacks; ++i) {
    Result<AStackRef> ref = list.Pop(cpu0);
    ASSERT_TRUE(ref.ok()) << "claim " << i;
    claimed.push_back(*ref);
  }
  EXPECT_EQ(sorted_indices(claimed), all);
  EXPECT_TRUE(list.Snapshot().empty());
  // Exhaustion comes only at k + 1, on any processor.
  EXPECT_EQ(list.Pop(cpu0).code(), ErrorCode::kAStacksExhausted);
  EXPECT_EQ(list.Pop(machine.processor(2)).code(),
            ErrorCode::kAStacksExhausted);

  // Pushing them back fills processor 0's slot and spills the rest; each
  // is free exactly once again.
  for (const AStackRef& ref : claimed) {
    list.Push(cpu0, ref);
  }
  EXPECT_EQ(sorted_indices(list.Snapshot()), all);
  EXPECT_EQ(list.pops(), 7u);
  EXPECT_EQ(list.pushes(), 7u);
}

TEST(IdleRegistry, ClaimIsExclusiveAndContextKeyed) {
  IdleProcessorRegistry registry(/*processor_count=*/4);
  EXPECT_EQ(registry.parked_count(), 0);
  EXPECT_EQ(registry.TryClaimInContext(/*cpu=*/0, VmContextId{2}), -1);
  EXPECT_EQ(registry.failed_claims(), 1u);

  registry.Park(/*cpu=*/1, VmContextId{2});
  registry.Park(/*cpu=*/3, VmContextId{5});
  EXPECT_EQ(registry.parked_count(), 2);

  // Wrong context: the parked set does not satisfy it.
  EXPECT_EQ(registry.TryClaimInContext(0, VmContextId{4}), -1);
  // Right context: claim succeeds exactly once.
  EXPECT_EQ(registry.TryClaimInContext(0, VmContextId{2}), 1);
  EXPECT_EQ(registry.TryClaimInContext(2, VmContextId{2}), -1);
  EXPECT_EQ(registry.parked_count(), 1);
  EXPECT_EQ(registry.claims(), 1u);

  registry.Unpark(3);
  EXPECT_EQ(registry.TryClaimInContext(0, VmContextId{5}), -1);
  EXPECT_EQ(registry.parked_count(), 0);
}

class ShardedTableTest : public ::testing::TestWithParam<bool> {};

TEST_P(ShardedTableTest, MirrorValidatesLikeTheKernelTable) {
  // The kernel's table validates through its seqlock index, in the
  // lock-free read and in the single-lock baseline alike; the cached
  // validation and the side-effect-free read agree on every probe.
  Testbed bed;
  BindingTable& table = bed.kernel().bindings();
  table.set_lock_free(GetParam());
  const DomainId client = bed.client_domain();
  auto expect_code = [&](const BindingObject& object, DomainId caller,
                         ErrorCode code) {
    EXPECT_EQ(table.Validate(object, caller).code(), code);
    EXPECT_EQ(table.CheckValidate(object, caller).code(), code);
  };

  const BindingObject& object = bed.binding().object();
  Result<BindingRecord*> hit = table.Validate(object, client);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)->id, object.id);

  // Forged nonce.
  BindingObject forged = object;
  forged.nonce ^= 0x1;
  expect_code(forged, client, ErrorCode::kForgedBinding);
  // Wrong holder.
  expect_code(object, bed.server_domain(), ErrorCode::kForgedBinding);
  // Unknown ids: past the last binding, and past the index's reach.
  BindingObject unknown = object;
  unknown.id = 9999;
  expect_code(unknown, client, ErrorCode::kForgedBinding);
  unknown.id = -1;
  expect_code(unknown, client, ErrorCode::kForgedBinding);
  // Revocation reaches the record and every later validation.
  table.Revoke(object.id);
  EXPECT_TRUE(bed.binding().record()->revoked);
  expect_code(object, client, ErrorCode::kRevokedBinding);
  EXPECT_GE(table.validations(), 5u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, ShardedTableTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "LockFree" : "Locked";
                         });

TEST(ParWorldTest, SingleWorkerCallsComputeCorrectResults) {
  ParWorldOptions options;
  options.workers = 1;
  ParWorld world(options);
  ASSERT_NE(world.par(), nullptr);

  EXPECT_TRUE(world.CallNull(0).ok());
  std::int32_t sum = 0;
  EXPECT_TRUE(world.CallAdd(0, 40, 2, &sum).ok());
  EXPECT_EQ(sum, 42);

  std::uint8_t in[kParBigSize];
  std::uint8_t out[kParBigSize];
  for (std::size_t i = 0; i < kParBigSize; ++i) {
    in[i] = static_cast<std::uint8_t>(i * 3);
  }
  EXPECT_TRUE(world.CallBigInOut(0, in, out).ok());
  for (std::size_t i = 0; i < kParBigSize; ++i) {
    EXPECT_EQ(out[i], in[kParBigSize - 1 - i]);
  }
  EXPECT_EQ(world.server_calls_seen(), 3u);
  EXPECT_TRUE(world.par()->AuditConservation().ok());
}

TEST(ParWorldTest, ParkedProcessorMakesCallsExchange) {
  ParWorldOptions options;
  options.workers = 1;
  options.parked = 1;
  options.domain_caching = true;
  ParWorld world(options);

  CallStats stats;
  ASSERT_TRUE(world.CallNull(0, &stats).ok());
  EXPECT_TRUE(stats.exchanged_on_call);
  EXPECT_GE(world.machine().parallel_idle()->claims(), 1u);
  // After the round trip the idle supply is replenished: the next call can
  // exchange again (the §3.4 steady state).
  ASSERT_TRUE(world.CallNull(0, &stats).ok());
  EXPECT_TRUE(stats.exchanged_on_call);
}

TEST(ParWorldTest, CachingOffNeverExchangesAndCountsMisses) {
  ParWorldOptions options;
  options.workers = 1;
  options.parked = 1;
  options.domain_caching = false;
  ParWorld world(options);

  CallStats stats;
  ASSERT_TRUE(world.CallNull(0, &stats).ok());
  EXPECT_FALSE(stats.exchanged_on_call);
  EXPECT_FALSE(stats.exchanged_on_return);
}

TEST(ParWorldTest, ExhaustionFailsFastInsteadOfGrowing) {
  // One A-stack per group and a handler that recursively calls again would
  // deadlock; instead verify the pinned kFail policy surfaces exhaustion.
  ParWorldOptions options;
  options.workers = 1;
  options.astacks_per_group = 1;
  ParWorld world(options);

  ClientBinding& binding = world.worker_binding(0);
  EXPECT_EQ(binding.exhaustion_policy(), AStackExhaustionPolicy::kFail);
  // Drain the only Null-group A-stack directly, then call: the engine must
  // report exhaustion, not allocate a growth region.
  const Interface* iface = binding.interface_spec();
  const int group = iface->pd(world.null_proc()).astack_group;
  ParFreeList* list = binding.par_queue(group);
  ASSERT_NE(list, nullptr);
  Result<AStackRef> held = list->Pop(world.machine().processor(0));
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(world.CallNull(0).code(), ErrorCode::kAStacksExhausted);
  list->Push(world.machine().processor(0), *held);
  EXPECT_TRUE(world.CallNull(0).ok());
}

TEST(ParWorldTest, DeterministicBackendStillWorksThroughParWorld) {
  ParWorldOptions options;
  options.workers = 1;
  options.backend = RuntimeBackend::kDeterministicSim;
  ParWorld world(options);
  EXPECT_EQ(world.par(), nullptr);
  std::int32_t sum = 0;
  EXPECT_TRUE(world.CallAdd(0, 1, 2, &sum).ok());
  EXPECT_EQ(sum, 3);
}

// The paper's common path takes no shared lock (Section 3.4); on the
// real-thread engine it writes no shared line either. After warm-up, a
// single worker's calls are served by its own magazine slot, so no free
// list's Treiber head moves.
TEST(ParCommonPath, SingleWorkerCallsLeaveEveryHeadTagUnchanged) {
  ParWorldOptions options;
  options.workers = 1;
  ParWorld world(options);
  ASSERT_NE(world.par(), nullptr);
  std::uint8_t in[kParBigSize] = {};
  std::uint8_t out[kParBigSize] = {};
  std::int32_t sum = 0;
  auto call_each = [&] {
    EXPECT_TRUE(world.CallNull(0).ok());
    EXPECT_TRUE(world.CallAdd(0, 2, 3, &sum).ok());
    EXPECT_TRUE(world.CallBigIn(0, in).ok());
    EXPECT_TRUE(world.CallBigInOut(0, in, out).ok());
  };
  call_each();  // Warm-up: parks one A-stack per group in the slot.

  const auto& lists = world.par()->free_lists();
  std::vector<std::uint32_t> tags;
  std::uint64_t pops = 0;
  for (const auto& list : lists) {
    tags.push_back(list->head_tag());
    pops += list->pops();
  }
  constexpr int kRounds = 50;
  for (int i = 0; i < kRounds; ++i) {
    call_each();
  }
  std::uint64_t pops_after = 0;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    EXPECT_EQ(lists[i]->head_tag(), tags[i]) << lists[i]->name();
    pops_after += lists[i]->pops();
  }
  EXPECT_EQ(pops_after - pops, 4u * kRounds);
  EXPECT_TRUE(world.par()->AuditConservation().ok());
}

// The call-path counters moved into per-processor blocks; their accessors
// still count every call, and a run that leaves A-stacks in several
// processors' magazine slots still passes the conservation audit.
TEST(ParCommonPath, FourWorkerCountersStillCountEveryCall) {
  ParWorldOptions options;
  options.workers = 4;
  options.domains = 2;  // Two workers per binding.
  ParWorld world(options);
  ParallelMachine& par = *world.par();
  IdleProcessorRegistry& idle = *world.machine().parallel_idle();
  struct Counts {
    std::uint64_t pops = 0, pushes = 0, validations = 0, cache_hits = 0,
                  failed_claims = 0;
  };
  auto read = [&] {
    Counts c;
    for (const auto& list : par.free_lists()) {
      c.pops += list->pops();
      c.pushes += list->pushes();
    }
    c.validations = par.bindings().validations();
    c.cache_hits = par.bindings().cache_hits();
    c.failed_claims = idle.failed_claims();
    return c;
  };
  const Counts before = read();
  const ParallelMachine::RunReport report = par.RunWorkers(
      std::chrono::milliseconds(50), [&](int w) { return world.CallNull(w); });
  const Counts after = read();

  ASSERT_GT(report.calls, 0u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(after.pops - before.pops, report.calls);
  EXPECT_EQ(after.pushes - before.pushes, report.calls);
  EXPECT_EQ((after.cache_hits - before.cache_hits) +
                (after.validations - before.validations),
            report.calls);
  // Nothing is parked: both legs of every call try a claim and fail.
  EXPECT_EQ(after.failed_claims - before.failed_claims, 2 * report.calls);
  EXPECT_TRUE(par.AuditConservation().ok());
  for (const auto& list : par.free_lists()) {
    EXPECT_EQ(list->Snapshot().size(), list->nodes().size()) << list->name();
  }
}

// Terminating a domain revokes its bindings, stopping in-calls and
// out-calls (Section 5.3) — on the parallel backend too, whose call leg
// validates through the same table the collector revokes.
TEST(ParBackendTest, TerminatedServerRevokesTheParallelCallLeg) {
  ParWorldOptions options;
  options.workers = 1;
  ParWorld world(options);
  ASSERT_NE(world.par(), nullptr);
  ASSERT_TRUE(world.CallNull(0).ok());  // The binding's cache entry is hot.
  ASSERT_EQ(world.server_calls_seen(), 1u);

  ASSERT_TRUE(world.runtime().TerminateDomain(world.server_domain()).ok());
  EXPECT_EQ(world.CallNull(0).code(), ErrorCode::kRevokedBinding);
  std::int32_t sum = 0;
  EXPECT_EQ(world.CallAdd(0, 1, 2, &sum).code(), ErrorCode::kRevokedBinding);
  // No handler ran in the dead domain.
  EXPECT_EQ(world.server_calls_seen(), 1u);
}

TEST(ParBackendTest, ImportAfterAdoptionIsRefused) {
  // A binding made after adoption would have no real-thread free list, so
  // its calls would pop the simulated queue from real threads.
  ParWorldOptions options;
  options.workers = 1;
  ParWorld world(options);
  ASSERT_NE(world.par(), nullptr);
  const std::size_t bindings = world.runtime().bindings().size();
  Result<ClientBinding*> late = world.runtime().Import(
      world.machine().processor(0), world.client_domain(0), "par.Measures");
  EXPECT_EQ(late.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(world.runtime().bindings().size(), bindings);
  // The world keeps serving its adopted bindings.
  EXPECT_TRUE(world.CallNull(0).ok());
}

}  // namespace
}  // namespace lrpc
