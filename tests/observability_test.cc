// Tests of the instrumentation surface (CallTracer, per-domain memory
// accounting), the V 32-byte message model, the alert mechanism, and the
// hostile-client scenarios the A-stack design admits (mid-call mutation,
// corrupt length prefixes) — Section 3.5's "it is still possible for a
// client or server to asynchronously change the values of arguments".

#include <gtest/gtest.h>

#include <cstring>

#include "src/lrpc/call_tracer.h"
#include "src/lrpc/server_frame.h"
#include "src/lrpc/testbed.h"
#include "src/lrpc/wire.h"
#include "src/rpc/register_rpc.h"

namespace lrpc {
namespace {

// --- CallTracer ---

TEST(CallTracerTest, RecordsCallsWithLatencyAndBytes) {
  Testbed bed;
  CallTracer tracer;
  bed.runtime().set_tracer(&tracer);

  std::int32_t sum = 0;
  ASSERT_TRUE(bed.CallAdd(1, 2, &sum).ok());
  ASSERT_TRUE(bed.CallNull().ok());

  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kCall);
  EXPECT_EQ(events[0].procedure, bed.add_proc());
  EXPECT_EQ(events[0].bytes, 12u);
  EXPECT_NEAR(ToMicros(events[0].latency()), 164.0, 5.0);
  EXPECT_EQ(events[1].bytes, 0u);
  EXPECT_NEAR(ToMicros(events[1].latency()), 157.0, 5.0);
}

TEST(CallTracerTest, RecordsBindsTerminationsAndFailures) {
  Testbed bed;
  CallTracer tracer;
  bed.runtime().set_tracer(&tracer);

  auto binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "paper.Measures");
  ASSERT_TRUE(binding.ok());
  ASSERT_TRUE(bed.runtime().TerminateDomain(bed.server_domain()).ok());
  EXPECT_FALSE(bed.CallNull().ok());

  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kBind);
  EXPECT_EQ(events[1].kind, TraceEventKind::kTerminate);
  EXPECT_EQ(events[2].kind, TraceEventKind::kCall);
  EXPECT_EQ(events[2].result, ErrorCode::kRevokedBinding);
}

TEST(CallTracerTest, RingBufferDropsOldest) {
  Testbed bed;
  CallTracer tracer(/*capacity=*/8);
  bed.runtime().set_tracer(&tracer);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bed.CallNull().ok());
  }
  EXPECT_EQ(tracer.total_recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first ordering: strictly increasing start times.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].start, events[i - 1].start);
  }
}

TEST(CallTracerTest, SummaryAggregates) {
  Testbed bed({.processors = 2, .park_idle_in_server = true});
  CallTracer tracer;
  bed.runtime().set_tracer(&tracer);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bed.CallNull().ok());
  }
  const CallTracer::Summary summary = tracer.Summarize();
  EXPECT_EQ(summary.calls, 10u);
  EXPECT_EQ(summary.exchanged_calls, 10u);
  EXPECT_EQ(summary.failed_calls, 0u);
  EXPECT_NEAR(summary.mean_latency_us, 125.0, 3.0);
  EXPECT_FALSE(tracer.Report().empty());
}

// --- Per-domain memory accounting ---

TEST(DomainMemory, AccountsAStacksAndEStacks) {
  Testbed bed;
  ASSERT_TRUE(bed.CallNull().ok());  // Forces one E-stack allocation.

  const auto server = bed.kernel().DomainMemoryUsage(bed.server_domain());
  const auto client = bed.kernel().DomainMemoryUsage(bed.client_domain());
  // A-stack regions are pair-wise mapped: both parties count the same bytes.
  EXPECT_EQ(server.astack_bytes, client.astack_bytes);
  EXPECT_GT(server.astack_bytes, 0u);
  EXPECT_EQ(server.astack_regions, client.astack_regions);
  EXPECT_EQ(server.linkage_records, client.linkage_records);
  // Only the server pays for E-stacks (tens of KB each).
  EXPECT_EQ(server.estack_bytes, 32u * 1024u);
  EXPECT_EQ(client.estack_bytes, 0u);
}

TEST(DomainMemory, LazyEStacksKeepFootprintFlat) {
  Testbed bed;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(bed.CallNull().ok());
  }
  // 200 calls, one E-stack: the Section 3.2 rationale in numbers.
  EXPECT_EQ(bed.kernel().DomainMemoryUsage(bed.server_domain()).estack_bytes,
            32u * 1024u);
}

// --- V's 32-byte fixed-message optimization (Section 2.2) ---

TEST(VMessageModel, FixedMessageIsFastButPartial) {
  const MachineModel cvax = MachineModel::CVaxFirefly();
  VMessageModel v;
  // Within the fixed message: cheaper than the general path...
  EXPECT_LT(v.CallCost(cvax, 32), Micros(464));
  // ...but never as cheap as LRPC's A-stack, and it cliffs at 33 bytes.
  EXPECT_GT(v.CallCost(cvax, 32), LrpcCallCostForBytes(cvax, 32));
  EXPECT_GT(v.CallCost(cvax, 33) - v.CallCost(cvax, 32), Micros(300));
}

TEST(VMessageModel, Figure1MixDefeatsFixedMessages) {
  // "These optimizations, although sometimes effective, only partially
  // address the performance problems": under the measured size mix most
  // calls overflow 32 bytes.
  const MachineModel cvax = MachineModel::CVaxFirefly();
  VMessageModel v;
  CallSizeModel sizes;
  Rng rng(1989);
  int overflow = 0;
  const int kN = 100000;
  double v_mean = 0, lrpc_mean = 0;
  for (int i = 0; i < kN; ++i) {
    const std::uint32_t bytes = sizes.Sample(rng);
    if (bytes > v.fixed_message_bytes) {
      ++overflow;
    }
    v_mean += ToMicros(v.CallCost(cvax, bytes));
    lrpc_mean += ToMicros(LrpcCallCostForBytes(cvax, bytes));
  }
  EXPECT_GT(static_cast<double>(overflow) / kN, 0.5);
  EXPECT_GT(v_mean / kN, lrpc_mean / kN);
}

// --- Alerts (Section 5.3) ---

TEST(AlertTest, ServerMayHonorAnAlert) {
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "alert.Poll");
  ProcedureDef def;
  def.name = "LongRunning";
  Kernel* kernel = &bed.kernel();
  const ThreadId thread = bed.client_thread();
  def.handler = [kernel, thread](ServerFrame& frame) -> Status {
    // Someone (conceptually another thread) alerts mid-call...
    EXPECT_TRUE(kernel->AlertThread(thread).ok());
    // ...and this server chooses to honor it.
    if (frame.Alerted()) {
      return Status(ErrorCode::kCallAborted, "honored alert");
    }
    return Status::Ok();
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  auto binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "alert.Poll");
  ASSERT_TRUE(binding.ok());
  EXPECT_EQ(bed.runtime()
                .Call(bed.cpu(0), bed.client_thread(), **binding, 0, {}, {})
                .code(),
            ErrorCode::kCallAborted);
}

TEST(AlertTest, ServerMayIgnoreAnAlert) {
  // "The notified thread may choose to ignore the alert": the call
  // completes normally despite it.
  Testbed bed;
  ASSERT_TRUE(bed.kernel().AlertThread(bed.client_thread()).ok());
  EXPECT_TRUE(bed.CallNull().ok());
  // The alert is still pending, unconsumed.
  EXPECT_TRUE(bed.kernel().thread(bed.client_thread()).alerted());
}

TEST(AlertTest, AlertingDeadThreadFails) {
  Testbed bed;
  Thread& t = bed.kernel().thread(bed.client_thread());
  bed.kernel().DestroyThread(t);
  EXPECT_EQ(bed.kernel().AlertThread(bed.client_thread()).code(),
            ErrorCode::kNoSuchThread);
}

// --- Hostile-client scenarios on the shared A-stack ---

TEST(HostileClient, MidCallMutationIsVisibleForMutableParams) {
  // The paper accepts this for uninterpreted data: with no E copy, a
  // mutation between marshal and server read is observable.
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "hostile.Mutable");
  ProcedureDef def;
  def.name = "ReadTwice";
  def.params.push_back(
      {.name = "v", .direction = ParamDirection::kIn, .size = 4});
  def.params.push_back(
      {.name = "second", .direction = ParamDirection::kOut, .size = 4});
  // The "hostile client" scribbles on the A-stack while the server runs.
  AStackRegion** region_hole = new AStackRegion*(nullptr);
  const DomainId client_domain = bed.client_domain();
  def.handler = [region_hole, client_domain](ServerFrame& frame) -> Status {
    Result<std::int32_t> first = frame.Arg<std::int32_t>(0);
    if (!first.ok()) {
      return first.status();
    }
    // Mid-call, the client asynchronously changes the argument (it does
    // not know which A-stack the LIFO queue handed out, so it scribbles on
    // all of them).
    if (*region_hole != nullptr) {
      const std::int32_t evil = 666;
      for (int i = 0; i < (*region_hole)->count(); ++i) {
        (void)(*region_hole)->segment().Write(
            client_domain, (*region_hole)->OffsetOf(i), &evil, 4);
      }
    }
    Result<std::int32_t> second = frame.Arg<std::int32_t>(0);
    if (!second.ok()) {
      return second.status();
    }
    return frame.Result_<std::int32_t>(1, *second);
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  auto binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "hostile.Mutable");
  ASSERT_TRUE(binding.ok());
  *region_hole = (*binding)->record()->regions.front().get();

  const std::int32_t honest = 7;
  std::int32_t second_read = 0;
  const CallArg args[] = {CallArg::Of(honest)};
  const CallRet rets[] = {CallRet::Of(&second_read)};
  ASSERT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **binding, 0, args,
                        rets)
                  .ok());
  EXPECT_EQ(second_read, 666);  // Mutable semantics: the mutation shows.
  delete region_hole;
}

TEST(HostileClient, ImmutableCopyDefeatsMidCallMutation) {
  // The same attack against an immutable parameter fails: the E copy
  // happened before the handler ran.
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "hostile.Immutable");
  ProcedureDef def;
  def.name = "ReadTwice";
  def.params.push_back({.name = "v",
                        .direction = ParamDirection::kIn,
                        .size = 4,
                        .flags = {.immutable = true}});
  def.params.push_back(
      {.name = "second", .direction = ParamDirection::kOut, .size = 4});
  AStackRegion** region_hole = new AStackRegion*(nullptr);
  const DomainId client_domain = bed.client_domain();
  def.handler = [region_hole, client_domain](ServerFrame& frame) -> Status {
    if (*region_hole != nullptr) {
      const std::int32_t evil = 666;
      for (int i = 0; i < (*region_hole)->count(); ++i) {
        (void)(*region_hole)->segment().Write(
            client_domain, (*region_hole)->OffsetOf(i), &evil, 4);
      }
    }
    Result<std::int32_t> value = frame.Arg<std::int32_t>(0);
    if (!value.ok()) {
      return value.status();
    }
    return frame.Result_<std::int32_t>(1, *value);
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  auto binding = bed.runtime().Import(bed.cpu(0), bed.client_domain(),
                                      "hostile.Immutable");
  ASSERT_TRUE(binding.ok());
  *region_hole = (*binding)->record()->regions.front().get();

  const std::int32_t honest = 7;
  std::int32_t seen = 0;
  const CallArg args[] = {CallArg::Of(honest)};
  const CallRet rets[] = {CallRet::Of(&seen)};
  ASSERT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **binding, 0, args,
                        rets)
                  .ok());
  EXPECT_EQ(seen, 7);  // The private copy is what the server read.
  delete region_hole;
}

TEST(HostileClient, CorruptLengthPrefixRejectedNotCrashed) {
  // A client that scribbles an oversized length prefix into a variable
  // slot must get an error, not a server over-read.
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "hostile.Prefix");
  ProcedureDef def;
  def.name = "Take";
  def.params.push_back({.name = "data",
                        .direction = ParamDirection::kIn,
                        .size = 0,
                        .max_size = 64});
  bool handler_saw_error = false;
  def.handler = [&handler_saw_error](ServerFrame& frame) -> Status {
    std::uint8_t buf[64];
    Result<std::size_t> n = frame.ReadArg(0, buf, sizeof(buf));
    if (!n.ok()) {
      handler_saw_error = true;
      return n.status();
    }
    return Status::Ok();
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  auto binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "hostile.Prefix");
  ASSERT_TRUE(binding.ok());

  // Marshal honestly, then corrupt the prefix directly on the shared
  // segment (what a raw-register hostile client could do).
  AStackRegion* region = (*binding)->record()->regions.front().get();
  const std::uint8_t honest[8] = {1, 2, 3};

  // Use a handler-side corruption: overwrite the prefix after marshal via a
  // pre-call hook — simplest is corrupt-then-call using a second in-flight
  // write from the client domain inside the handler's view. Here we corrupt
  // before the call by writing an absurd prefix to slot 0 of A-stack 0 and
  // invoking the decode path through a hand-built frame.
  const std::uint32_t absurd = 0xfffffff0u;  // Not the OOB marker; too big.
  ASSERT_TRUE(region->segment()
                  .WriteValue(bed.client_domain(), region->OffsetOf(0), absurd)
                  .ok());
  const ProcedureDef& compiled_def = *(*binding)->interface_spec()->pd(0).def;
  ServerFrame frame(&bed.runtime(), bed.cpu(0), compiled_def,
                    AStackRef{region, 0}, bed.server_domain(),
                    bed.client_domain(), bed.client_thread(), nullptr);
  EXPECT_EQ(frame.PrepareArguments().code(), ErrorCode::kInvalidArgument);

  // And through a real call, an honest client still works.
  const CallArg args[] = {CallArg(honest, sizeof(honest))};
  EXPECT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **binding, 0, args, {})
                  .ok());
  EXPECT_FALSE(handler_saw_error);
}

TEST(HostileServer, ResultPrefixPastTheSlotIsRejected) {
  // The server writes results on the shared A-stack, so a hostile one can
  // write any length prefix into a variable out-slot. A prefix past the
  // slot must fail the call even when the caller's buffer is larger —
  // otherwise copy F would read past the slot into the next A-stack.
  constexpr std::size_t kMax = 16;
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "hostile.Result");
  AStackRegion* region = nullptr;  // Set once the binding exists.
  ProcedureDef def;
  def.name = "Leak";
  def.params.push_back({.name = "data",
                        .direction = ParamDirection::kOut,
                        .size = 0,
                        .max_size = kMax});
  def.handler = [&region, &bed](ServerFrame& frame) -> Status {
    const std::uint8_t honest[kMax] = {};
    LRPC_RETURN_IF_ERROR(frame.WriteResult(0, honest, sizeof(honest)));
    // Then overwrite the prefix of the out-slot (at offset 0 of every
    // A-stack of the region the server shares) with one byte too many.
    const auto prefix = static_cast<std::uint32_t>(kMax + 1);
    for (int i = 0; i < region->count(); ++i) {
      LRPC_RETURN_IF_ERROR(region->segment().WriteValue(
          bed.server_domain(), region->OffsetOf(i), prefix));
    }
    return Status::Ok();
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  auto binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "hostile.Result");
  ASSERT_TRUE(binding.ok());
  region = (*binding)->record()->regions.front().get();

  std::uint8_t out[4 * kMax] = {};
  const CallRet rets[] = {CallRet(out, sizeof(out))};
  const Status status = bed.runtime().Call(
      bed.cpu(0), bed.client_thread(), **binding, 0, {}, rets);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace lrpc
