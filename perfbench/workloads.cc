#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "perfbench/host.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/lrpc/async_call.h"
#include "src/trace/size_model.h"

namespace perfbench {

namespace {

const Workload kWorkloads[] = {
    // The smallest calls, on one caller: nearly all of their time is the
    // fixed per-call cost of the lrpc, kern and shm layers, with no
    // transport and no contention. The control for scaling and transport
    // changes.
    {"par-small-1", Driver::kParSmall,
     {.backend = lrpc::RuntimeBackend::kParallelHost, .callers = 1, .client_domains = 1},
     2},
    // Figure 2's case: four callers, one per core, two per binding, on the
    // same seeded mix. Any shared write on the call path (free-list CAS,
    // seqlock binding table, idle-registry claims, shared counters) shows
    // as calls_per_s below four times par-small-1's.
    {"par-small-4", Driver::kParSmall,
     {.backend = lrpc::RuntimeBackend::kParallelHost, .callers = 4, .client_domains = 2},
     4},
    // Synchronous Echo calls into a forked server, sized by Figure 1: the
    // doorbell and copy layers do most of the work and copy cost grows
    // with size, so shared-A-stack and doorbell changes show here and not
    // in par-small-*.
    {"proc-fig1-sync", Driver::kProcSync,
     {.backend = lrpc::RuntimeBackend::kMultiProcess, .callers = 1, .client_domains = 1},
     8},
    // The same world and sizes through one AsyncRing at depth 16: the
    // batched transfer leg (ProcTransport::ExecuteBatch), one doorbell per
    // batch of small Echo calls and the per-call fallback for large ones.
    // Catches a change that speeds sync transfers but slows batched ones,
    // or the reverse.
    {"proc-fig1-async", Driver::kProcAsync,
     {.backend = lrpc::RuntimeBackend::kMultiProcess, .callers = 1, .client_domains = 1},
     32},
};

constexpr std::size_t kInputCalls = 4096;  // Power of two: index by mask.
constexpr int kAsyncDepth = lrpc::AsyncRing::kMaxDepth;
// Bytes past an Echo reply that must come back untouched.
constexpr std::size_t kGuardBytes = 8;
constexpr std::uint8_t kGuardByte = 0xA5;

std::uint64_t CallerSeed(std::uint64_t seed, int caller) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(caller) + 1;
}

std::int32_t WrappingSum(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

// Fills a reply buffer so that every byte differs from the expected reply,
// and guards the bytes after it: a reply byte the server did not write, or
// wrote past the argument's length, fails EchoReplyIs.
void PoisonEchoReply(std::uint8_t* out, const std::uint8_t* arg,
                     std::size_t length) {
  for (std::size_t i = 0; i < length; ++i) {
    out[i] = static_cast<std::uint8_t>(~arg[length - 1 - i]);
  }
  std::memset(out + length, kGuardByte, kGuardBytes);
}

bool EchoReplyIs(const std::uint8_t* out, const std::uint8_t* arg,
                 std::size_t length) {
  for (std::size_t i = 0; i < length; ++i) {
    if (out[i] != arg[length - 1 - i]) {
      return false;
    }
  }
  for (std::size_t i = 0; i < kGuardBytes; ++i) {
    if (out[length + i] != kGuardByte) {
      return false;
    }
  }
  return true;
}

// One caller's counts; merged into CallerTotals after the callers join.
struct Tally {
  Tally(const Workload& workload, const Window& w)
      : window(w), latency(NewLatencyHistogram(workload.bucket_ns)) {}

  // One call that began at `begin` (the previous call's end, or its
  // Submit) and whose completion was observed at `end`.
  void Record(std::int64_t begin, std::int64_t end, bool ok, bool right) {
    ++completed;
    ok_calls += ok ? 1 : 0;
    bad += ok && right ? 0 : 1;
    if (end < window.start_ns || end >= window.end_ns) {
      return;
    }
    latency.Add(static_cast<std::uint64_t>(end - begin));
    ++attempted;
    failed += ok && right ? 0 : 1;
  }

  Window window;
  lrpc::Histogram latency;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok_calls = 0;
  std::uint64_t bad = 0;
  std::uint64_t server_executions = 0;
};

void ParSmallLoop(World& world, const Inputs& inputs, int caller,
                  Tally& tally) {
  lrpc::LrpcRuntime& runtime = world.runtime();
  lrpc::Processor& cpu = world.cpu(caller);
  const lrpc::ThreadId thread = world.thread(caller);
  lrpc::ClientBinding& binding = world.binding(caller);
  const int null_proc = world.null_proc();
  const int add_proc = world.add_proc();
  // The inline path takes Add's arguments and result packed at their slot
  // offsets in one block.
  const lrpc::ProcedureDef& add_def = *world.pd(add_proc).def;
  const std::size_t off_a = lrpc::ParamOffset(add_def, 0);
  const std::size_t off_b = lrpc::ParamOffset(add_def, 1);
  const std::size_t off_sum = lrpc::ParamOffset(add_def, 2);
  alignas(8) std::uint8_t block[lrpc::kInlineSlotSpanLimit] = {};

  const std::vector<SmallCall>& calls =
      inputs.small[static_cast<std::size_t>(caller)];
  ThreadTrace* trace = CurrentTrace();
  lrpc::CallStats stats;
  std::int64_t prev = NowNs();
  for (std::size_t i = 0;; ++i) {
    const SmallCall& call = calls[i & (kInputCalls - 1)];
    lrpc::Status status;
    bool right = true;
    if (!call.add) {
      Span span(Layer::kCall);
      status = call.inline_path
                   ? runtime.CallInlineParallel(cpu, thread, binding, null_proc,
                                                nullptr, nullptr, stats)
                   : runtime.CallParallel(cpu, thread, binding, null_proc, {},
                                          {}, stats);
    } else {
      const std::int32_t expect = WrappingSum(call.a, call.b);
      std::int32_t sum = ~expect;
      if (call.inline_path) {
        std::memcpy(block + off_a, &call.a, sizeof(call.a));
        std::memcpy(block + off_b, &call.b, sizeof(call.b));
        std::memcpy(block + off_sum, &sum, sizeof(sum));
        {
          Span span(Layer::kCall);
          status = runtime.CallInlineParallel(cpu, thread, binding, add_proc,
                                              block, block, stats);
        }
        std::memcpy(&sum, block + off_sum, sizeof(sum));
      } else {
        const lrpc::CallArg args[] = {lrpc::CallArg::Of(call.a),
                                      lrpc::CallArg::Of(call.b)};
        const lrpc::CallRet rets[] = {lrpc::CallRet::Of(&sum)};
        Span span(Layer::kCall);
        status = runtime.CallParallel(cpu, thread, binding, add_proc, args,
                                      rets, stats);
      }
      right = sum == expect;
    }
    if (trace != nullptr) {
      trace->CountCall(stats);
    }
    const std::int64_t now = NowNs();
    tally.Record(prev, now, status.ok(), right);
    if (now >= tally.window.end_ns) {
      return;
    }
    prev = now;
  }
}

void ProcSyncLoop(World& world, const Inputs& inputs, Tally& tally) {
  lrpc::LrpcRuntime& runtime = world.runtime();
  lrpc::Processor& cpu = world.cpu(0);
  const lrpc::ThreadId thread = world.thread(0);
  lrpc::ClientBinding& binding = world.binding(0);
  const int echo_procs[2] = {world.echo_proc(false), world.echo_proc(true)};
  std::vector<std::uint8_t> out(kEchoMaxBytes + kGuardBytes);

  ThreadTrace* trace = CurrentTrace();
  lrpc::CallStats stats;
  std::int64_t prev = NowNs();
  for (std::size_t i = 0;; ++i) {
    const EchoCall& call = inputs.echo[i & (kInputCalls - 1)];
    const std::uint8_t* arg = inputs.payload.data() + call.offset;
    PoisonEchoReply(out.data(), arg, call.length);
    const lrpc::CallArg args[] = {lrpc::CallArg(arg, call.length)};
    const lrpc::CallRet rets[] = {
        lrpc::CallRet(out.data(), call.length + kGuardBytes)};
    lrpc::Status status;
    {
      Span span(Layer::kCall);
      status = runtime.Call(cpu, thread, binding, echo_procs[call.small], args,
                            rets, &stats);
    }
    if (trace != nullptr) {
      trace->CountCall(stats);
    }
    const bool right = EchoReplyIs(out.data(), arg, call.length);
    const std::int64_t now = NowNs();
    tally.Record(prev, now, status.ok(), right);
    if (now >= tally.window.end_ns) {
      return;
    }
    prev = now;
  }
}

void ProcAsyncLoop(World& world, const Inputs& inputs, Tally& tally) {
  lrpc::Processor& cpu = world.cpu(0);
  const int echo_procs[2] = {world.echo_proc(false), world.echo_proc(true)};
  lrpc::AsyncRing ring(world.runtime(), world.binding(0), world.thread(0),
                       kAsyncDepth);

  struct Pending {
    const std::uint8_t* arg = nullptr;
    std::size_t length = 0;
    std::int64_t submitted_ns = 0;
    bool done = false;
    lrpc::Status status;
    lrpc::CallStats stats;
    std::vector<std::uint8_t> out =
        std::vector<std::uint8_t>(kEchoMaxBytes + kGuardBytes);
  };
  std::vector<Pending> pending(kAsyncDepth);

  ThreadTrace* trace = CurrentTrace();
  std::size_t next = 0;
  for (;;) {
    for (Pending& p : pending) {
      const EchoCall& call = inputs.echo[next++ & (kInputCalls - 1)];
      p.arg = inputs.payload.data() + call.offset;
      p.length = call.length;
      p.done = false;
      PoisonEchoReply(p.out.data(), p.arg, p.length);
      const lrpc::CallArg args[] = {lrpc::CallArg(p.arg, p.length)};
      const lrpc::CallRet rets[] = {
          lrpc::CallRet(p.out.data(), p.length + kGuardBytes)};
      p.submitted_ns = NowNs();
      Span span(Layer::kSubmit);
      lrpc::Result<lrpc::CallToken> token = ring.Submit(
          cpu, echo_procs[call.small], args, rets,
          [slot = &p](const lrpc::AsyncCompletion& completion) {
            slot->status = completion.status;
            slot->stats = completion.stats;
            slot->done = true;
          });
      if (!token.ok()) {
        p.status = token.status();
      }
    }
    {
      Span span(Layer::kFlush);
      ring.Flush(cpu);
    }
    {
      Span span(Layer::kReap);
      ring.Reap();
    }
    const std::int64_t now = NowNs();
    for (Pending& p : pending) {
      const bool ok = p.done && p.status.ok();
      if (trace != nullptr && p.done) {
        trace->CountCall(p.stats);
      }
      tally.Record(p.submitted_ns, now, ok,
                   ok && EchoReplyIs(p.out.data(), p.arg, p.length));
    }
    if (now >= tally.window.end_ns) {
      return;
    }
  }
}

void RunCaller(const Workload& workload, World& world, const Inputs& inputs,
               int caller, Tally& tally, ThreadTrace* trace) {
  PinThisThread(caller);
  BindTrace(trace);
  switch (workload.driver) {
    case Driver::kParSmall:
      ParSmallLoop(world, inputs, caller, tally);
      break;
    case Driver::kProcSync:
      ProcSyncLoop(world, inputs, tally);
      break;
    case Driver::kProcAsync:
      ProcAsyncLoop(world, inputs, tally);
      break;
  }
  BindTrace(nullptr);
  tally.server_executions = ServerExecutionsOnThisThread();
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

Inputs GenerateInputs(const Workload& workload, std::uint64_t seed) {
  Inputs inputs;
  if (workload.driver == Driver::kParSmall) {
    for (int c = 0; c < workload.spec.callers; ++c) {
      lrpc::Rng rng(CallerSeed(seed, c));
      std::vector<SmallCall> calls(kInputCalls);
      for (SmallCall& call : calls) {
        call.add = rng.NextBelow(2) == 1;
        call.inline_path = rng.NextBelow(2) == 1;
        call.a = static_cast<std::int32_t>(static_cast<std::uint32_t>(rng.Next()));
        call.b = static_cast<std::int32_t>(static_cast<std::uint32_t>(rng.Next()));
      }
      inputs.small.push_back(std::move(calls));
    }
    return inputs;
  }
  // Figure 1 gives a call's total bytes; Echo returns as many as it takes.
  lrpc::Rng rng(CallerSeed(seed, 0));
  const lrpc::CallSizeModel sizes;
  inputs.echo.resize(kInputCalls);
  for (EchoCall& call : inputs.echo) {
    const std::uint32_t total = sizes.Sample(rng);
    call.length = std::clamp<std::uint32_t>((total + 1) / 2, 1,
                                            static_cast<std::uint32_t>(kEchoMaxBytes));
    call.small = call.length <= kSmallEchoMaxBytes;
    call.offset = static_cast<std::uint32_t>(inputs.payload.size());
    for (std::uint32_t i = 0; i < call.length; ++i) {
      inputs.payload.push_back(static_cast<std::uint8_t>(rng.Next()));
    }
  }
  // Small calls first. ExecuteBatch takes its per-call fallback for a whole
  // batch when one window is too big for a batch entry, so in an Echo mix
  // nearly every batch of 16 would fall back. Grouped, every batch but the
  // one that straddles the boundary is all small (one doorbell) or all
  // large (the fallback), in Figure 1's proportion. The sync workload
  // replays the same order.
  std::stable_partition(inputs.echo.begin(), inputs.echo.end(),
                        [](const EchoCall& call) { return call.small; });
  return inputs;
}

CallerTotals RunCallers(const Workload& workload, World& world,
                        const Inputs& inputs, const Window& window,
                        std::vector<ThreadTrace>* traces) {
  const int callers = workload.spec.callers;
  LRPC_CHECK(traces == nullptr ||
             traces->size() == static_cast<std::size_t>(callers));
  std::vector<Tally> tallies;
  tallies.reserve(static_cast<std::size_t>(callers));
  for (int c = 0; c < callers; ++c) {
    tallies.emplace_back(workload, window);
  }

  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    ThreadTrace* trace =
        traces != nullptr ? &(*traces)[static_cast<std::size_t>(c)] : nullptr;
    threads.emplace_back([&, c, trace] {
      RunCaller(workload, world, inputs, c, tallies[static_cast<std::size_t>(c)],
                trace);
    });
  }

  // CPU time at the window's edges, client process and server process.
  const int server_pid = world.server_pid();
  std::int64_t client_cpu[2] = {};
  std::int64_t server_cpu[2] = {};
  for (int edge = 0; edge < 2; ++edge) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(edge == 0 ? window.start_ns : window.end_ns)));
    client_cpu[edge] = SelfCpuNs();
    server_cpu[edge] = server_pid > 0 ? ProcessCpuNs(server_pid) : 0;
  }
  for (std::thread& t : threads) {
    t.join();
  }

  CallerTotals totals(workload.bucket_ns);
  totals.client_cpu_ns = client_cpu[1] - client_cpu[0];
  totals.server_cpu_ns = server_cpu[1] - server_cpu[0];
  for (const Tally& tally : tallies) {
    LRPC_CHECK_OK(totals.latency.Merge(tally.latency));
    totals.attempted += tally.attempted;
    totals.failed += tally.failed;
    totals.completed += tally.completed;
    totals.ok += tally.ok_calls;
    totals.bad += tally.bad;
    totals.server_executions += tally.server_executions;
    totals.per_caller.push_back(tally.attempted);
  }
  return totals;
}

}  // namespace perfbench
