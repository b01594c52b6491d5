// The multi-process backend (src/proc, docs/multiprocess.md): real forked
// server domains, shared-mmap argument windows behind futex doorbells, and
// the supervisor/collector machinery that turns a SIGKILLed peer into
// kPeerDied/kCallFailed instead of a hang.
//
// Every test skips cleanly when the sandbox forbids fork.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/lrpc/async_call.h"
#include "src/lrpc/chaos_testbed.h"
#include "src/lrpc/server_frame.h"
#include "src/lrpc/supervised_call.h"
#include "src/proc/proc_host.h"
#include "src/proc/proc_world.h"

namespace lrpc {
namespace {

#define SKIP_WITHOUT_FORK()                                       \
  do {                                                            \
    if (!ProcHost::ForkPermitted()) {                             \
      GTEST_SKIP() << "fork is not permitted in this sandbox";    \
    }                                                             \
  } while (false)

// --- The backend executes calls in a real server process. ---

TEST(ProcBackendTest, NullCallRunsInTheServerProcess) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  ASSERT_NE(world.host().peer_pid(world.server_domain()), -1);
  EXPECT_NE(world.host().peer_pid(world.server_domain()), getpid());

  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(world.CallNull().ok());
  }
  // The shared-segment counter moved: the handler ran in the child. (A
  // parent-heap counter would stay 0 — fork copies, it does not share.)
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 10u);
  EXPECT_EQ(world.host().transfers(), 10u);
}

TEST(ProcBackendTest, AddCrossesTheChannelBothWays) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  std::int32_t sum = 0;
  ASSERT_TRUE(world.CallAdd(1200, 34, &sum).ok());
  EXPECT_EQ(sum, 1234);
  ASSERT_TRUE(world.CallAdd(-7, 7, &sum).ok());
  EXPECT_EQ(sum, 0);
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 2u);
}

TEST(ProcBackendTest, BigInOutEchoesReversedThroughSharedMemory) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  std::uint8_t in[kBigSize];
  std::uint8_t out[kBigSize] = {};
  for (std::size_t i = 0; i < kBigSize; ++i) {
    in[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  ASSERT_TRUE(world.CallBigInOut(in, out).ok());
  for (std::size_t i = 0; i < kBigSize; ++i) {
    ASSERT_EQ(out[i], in[kBigSize - 1 - i]) << "at " << i;
  }
  EXPECT_EQ(world.counters().bytes.load(std::memory_order_acquire),
            static_cast<std::uint64_t>(kBigSize));
}

// --- Every word in the shared channel is hostile input. ---

TEST(ProcBackendTest, OversizedWindowIsRejectedAndTheServerSurvives) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  // A full-channel window aimed at Null, whose scratch A-stack is far
  // smaller: the server must refuse it rather than copy past its region.
  std::uint8_t window[kProcPayloadBytes] = {};
  Status handler_status;
  ASSERT_TRUE(world.host()
                  .Execute(world.server_domain(), world.client_domain(),
                           world.null_proc(), /*inline_window=*/false, window,
                           sizeof(window), &handler_status,
                           ProcTransport::KillPhase::kNone)
                  .ok());
  EXPECT_EQ(handler_status.code(), ErrorCode::kInvalidArgument);

  // The same for a register window longer than the linkage registers.
  handler_status = Status::Ok();
  ASSERT_TRUE(world.host()
                  .Execute(world.server_domain(), world.client_domain(),
                           world.null_proc(), /*inline_window=*/true, window,
                           kLinkageRegsSize + 1, &handler_status,
                           ProcTransport::KillPhase::kNone)
                  .ok());
  EXPECT_EQ(handler_status.code(), ErrorCode::kInvalidArgument);

  // The server process is still alive and serving.
  EXPECT_TRUE(world.CallNull().ok());
  EXPECT_TRUE(world.host().Serves(world.server_domain()));
}

TEST(ProcBackendTest, BatchLongerThanTheChannelIsRefusedWhole) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  // One entry more than the channel's batch area: nothing crosses, every
  // entry carries the refusal, and no handler runs.
  std::vector<ProcTransport::BatchCall> calls(kProcBatchMax + 1);
  for (ProcTransport::BatchCall& call : calls) {
    call.procedure = world.null_proc();
  }
  EXPECT_EQ(world.host()
                .ExecuteBatch(world.server_domain(), world.client_domain(),
                              calls, ProcTransport::KillPhase::kNone)
                .code(),
            ErrorCode::kInvalidArgument);
  for (const ProcTransport::BatchCall& call : calls) {
    EXPECT_EQ(call.leg.code(), ErrorCode::kInvalidArgument);
  }
  EXPECT_EQ(world.host().transfers(), 0u);
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 0u);

  // The server then serves a normal call.
  EXPECT_TRUE(world.CallNull().ok());
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 1u);
}

TEST(ProcBackendTest, CopyStatsMatchTheSimBackend) {
  SKIP_WITHOUT_FORK();
  // Table 3's gate on the process backend: the server process reads the
  // arguments on the client's A-stack and writes the results there, so a
  // BigInOut call makes exactly the simulator's copies — A in, F out.
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  Testbed bed;

  std::uint8_t in[kBigSize];
  std::uint8_t proc_out[kBigSize] = {};
  std::uint8_t sim_out[kBigSize] = {};
  for (std::size_t i = 0; i < kBigSize; ++i) {
    in[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  CallStats proc_stats;
  CallStats sim_stats;
  ASSERT_TRUE(world.CallBigInOut(in, proc_out, 0, &proc_stats).ok());
  ASSERT_TRUE(bed.CallBigInOut(in, sim_out, &sim_stats).ok());
  EXPECT_EQ(world.host().transfers(), 1u);
  EXPECT_EQ(proc_stats.copies.a, sim_stats.copies.a);
  EXPECT_EQ(proc_stats.copies.b, sim_stats.copies.b);
  EXPECT_EQ(proc_stats.copies.c, sim_stats.copies.c);
  EXPECT_EQ(proc_stats.copies.d, sim_stats.copies.d);
  EXPECT_EQ(proc_stats.copies.e, sim_stats.copies.e);
  EXPECT_EQ(proc_stats.copies.f, sim_stats.copies.f);
  EXPECT_EQ(proc_stats.copies.bytes_copied, sim_stats.copies.bytes_copied);
  EXPECT_EQ(proc_stats.copies.total_ops(), 2u);
  EXPECT_EQ(std::memcmp(proc_out, sim_out, kBigSize), 0);
}

TEST(ProcBackendTest, ImportThatOverflowsTheArenaIsOutOfMemory) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  const std::string name = world.binding().interface_spec()->name();

  // Every import carves its A-stacks from the server's fixed arena; keep
  // importing until one cannot fit. It fails whole, with a typed error —
  // never a heap fallback.
  int imported = 0;
  Status failed = Status::Ok();
  while (failed.ok() && imported < 100000) {
    Result<ClientBinding*> bound =
        world.runtime().Import(world.cpu(), world.client_domain(), name);
    failed = bound.status();
    imported += bound.ok() ? 1 : 0;
  }
  EXPECT_EQ(failed.code(), ErrorCode::kOutOfMemory);
  EXPECT_GT(imported, 1);
  // The failed import gave back what it carved: the next one fails the
  // same way instead of fitting a smaller leftover.
  EXPECT_EQ(world.runtime()
                .Import(world.cpu(), world.client_domain(), name)
                .status()
                .code(),
            ErrorCode::kOutOfMemory);

  // The server is untouched and still serving its first binding.
  std::uint8_t in[kBigSize] = {1, 2, 3};
  std::uint8_t out[kBigSize] = {};
  EXPECT_TRUE(world.CallNull().ok());
  EXPECT_TRUE(world.CallBigInOut(in, out).ok());
  EXPECT_EQ(out[kBigSize - 1], 1);
  EXPECT_TRUE(world.host().Serves(world.server_domain()));
  EXPECT_EQ(world.host().live_endpoints(), 1u);
}

TEST(ProcChannelTest, HandlerCodesOutsideTheErrorCodeRangeReadAsCallFailed) {
  EXPECT_EQ(DecodeHandlerCode(0).code(), ErrorCode::kOk);
  constexpr auto kLast = static_cast<std::int32_t>(ErrorCode::kAsyncQueueFull);
  EXPECT_EQ(DecodeHandlerCode(kLast).code(), ErrorCode::kAsyncQueueFull);
  for (const std::int32_t hostile : {kLast + 1, 256, -1}) {
    const Status decoded = DecodeHandlerCode(hostile);
    EXPECT_EQ(decoded.code(), ErrorCode::kCallFailed) << hostile;
    EXPECT_FALSE(decoded.detail().empty()) << hostile;
  }
}

TEST(ProcBackendTest, EachServerGetsItsOwnProcessAndChannel) {
  SKIP_WITHOUT_FORK();
  ProcWorld world(ProcWorld::Options{.servers = 3});
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  std::set<int> pids;
  for (int s = 0; s < world.servers(); ++s) {
    pids.insert(world.host().peer_pid(world.server_domain(s)));
    EXPECT_TRUE(world.CallNull(s).ok());
  }
  EXPECT_EQ(pids.size(), 3u);  // Three distinct real processes.
  EXPECT_EQ(world.host().live_endpoints(), 3u);
  EXPECT_EQ(world.host().mapped_segments(), 3u);
  for (int s = 0; s < world.servers(); ++s) {
    EXPECT_EQ(world.counters(s).calls.load(std::memory_order_acquire), 1u);
  }
}

TEST(ProcBackendTest, SpawnIsRefusedWithoutAMatchingExport) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  // A domain with no registered export must not be admitted.
  const DomainId rogue = world.kernel().CreateDomain({.name = "rogue"});
  Interface* iface = world.runtime().CreateInterface(rogue, "rogue.Iface");
  int null_proc = -1;
  ProcedureDef def;
  def.name = "Null";
  def.handler = [](ServerFrame&) { return Status::Ok(); };
  null_proc = iface->AddProcedure(std::move(def));
  (void)null_proc;
  iface->Seal();
  const Status status = world.host().SpawnServer(rogue, iface);
  EXPECT_EQ(status.code(), ErrorCode::kNoSuchInterface);
}

// --- Peer death: detection, status split, collection, reclamation. ---

TEST(ProcDeathTest, OutOfCallKillIsSeenBySupervisorAndCollected) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  ASSERT_TRUE(world.CallNull().ok());

  const std::uint64_t sigchld_before = ProcSupervisor::SigchldSeen();
  ASSERT_TRUE(world.host().KillPeer(world.server_domain()).ok());

  // The supervisor notices without any call in flight: EPOLLHUP on the
  // liveness pipe and/or the waitpid sweep, plus the SIGCHLD tally.
  std::vector<DomainId> dead;
  for (int spins = 0; spins < 500 && dead.empty(); ++spins) {
    dead = world.host().PollDeaths();
    if (dead.empty()) {
      usleep(2000);
    }
  }
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], world.server_domain());
  EXPECT_GE(ProcSupervisor::SigchldSeen(), sigchld_before);

  // Collection runs the §5.3 collector against the corpse: bindings
  // revoked, segments reclaimed.
  EXPECT_EQ(world.host().CollectDead(), 1);
  EXPECT_EQ(world.host().live_endpoints(), 0u);
  EXPECT_EQ(world.host().mapped_segments(), 0u);
  EXPECT_FALSE(world.kernel().domain(world.server_domain()).alive());

  // Calls on the revoked binding fail with the documented revocation.
  EXPECT_EQ(world.CallNull().code(), ErrorCode::kRevokedBinding);
}

TEST(ProcDeathTest, DeathDuringACallYieldsPeerDiedAndNeverHangs) {
  SKIP_WITHOUT_FORK();
  ProcWorld::Options options;
  options.host.call_deadline_ms = 2000;
  ProcWorld world(options);
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  // Kill the peer, then call before any sweep ran: Execute's own liveness
  // check must detect the corpse and fail pre-accept.
  ASSERT_TRUE(world.host().KillPeer(world.server_domain()).ok());
  const Status status = world.CallNull();
  EXPECT_EQ(status.code(), ErrorCode::kPeerDied);
  EXPECT_TRUE(IsRetryable(status.code()));

  // The death ran the collector; nothing is left mapped for that domain.
  EXPECT_EQ(world.host().mapped_segments(), 0u);
  EXPECT_FALSE(world.kernel().domain(world.server_domain()).alive());
}

TEST(ProcDeathTest, KernelEmitsPeerDeathEventOnCollection) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  struct Recorder : KernelEventListener {
    int peer_deaths = 0;
    int terminations = 0;
    void OnKernelEvent(Kernel&, KernelEventKind kind) override {
      if (kind == KernelEventKind::kPeerDeath) {
        ++peer_deaths;
      }
      if (kind == KernelEventKind::kTermination) {
        ++terminations;
      }
    }
  } recorder;
  world.kernel().set_event_listener(&recorder);

  ASSERT_TRUE(world.host().KillPeer(world.server_domain()).ok());
  EXPECT_EQ(world.CallNull().code(), ErrorCode::kPeerDied);
  // kPeerDeath fires after the collector's kTermination: the listener sees
  // a fully collected world.
  EXPECT_EQ(recorder.peer_deaths, 1);
  EXPECT_EQ(recorder.terminations, 1);
  world.kernel().set_event_listener(nullptr);
}

TEST(ProcDeathTest, SupervisedCallRetriesPastAPeerDeath) {
  SKIP_WITHOUT_FORK();
  // Two servers exporting distinct interfaces; kill one, then drive a
  // supervised call against it: kPeerDied is retryable, the retry hits the
  // revoked binding, and the supervisor rebinds or reports the documented
  // terminal status — never an undocumented one, never a hang.
  ProcWorld world(ProcWorld::Options{.servers = 2});
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  SupervisionPolicy policy;
  policy.retry.max_attempts = 3;
  SupervisedCall supervisor(world.runtime(), policy, /*seed=*/42);

  ASSERT_TRUE(world.host().KillPeer(world.server_domain(0)).ok());
  ClientBinding* binding = &world.binding(0);
  SupervisionOutcome out =
      supervisor.Call(world.cpu(), world.client_thread(), binding,
                      world.null_proc(), {}, {});
  // The first attempt sees kPeerDied (retryable); the server's export is
  // withdrawn by the collector, so the retry path ends in a documented
  // terminal code.
  EXPECT_NE(out.status.code(), ErrorCode::kPeerDied);
  const ErrorCode code = out.status.code();
  EXPECT_TRUE(code == ErrorCode::kRevokedBinding ||
              code == ErrorCode::kRetriesExhausted ||
              code == ErrorCode::kNoSuchInterface)
      << ErrorCodeName(code);
  EXPECT_GE(out.attempts, 2);

  // The sibling server is untouched.
  EXPECT_TRUE(world.CallNull(1).ok());
  EXPECT_EQ(world.host().live_endpoints(), 1u);
}

TEST(ProcDeathTest, GracefulShutdownReclaimsWithoutACollector) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  ASSERT_TRUE(world.CallNull().ok());
  ASSERT_TRUE(world.host().Shutdown(world.server_domain()).ok());
  // Shutdown leaves a dead-pending endpoint; the next call maps it to the
  // retryable pre-accept death and collects.
  EXPECT_EQ(world.CallNull().code(), ErrorCode::kPeerDied);
  EXPECT_EQ(world.host().mapped_segments(), 0u);
}

// --- The chaos and supervision suites against the real backend. ---

ChaosOptions ProcChaosOptions(std::uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.servers = 3;
  options.clients = 2;
  options.operations = 50;
  options.processors = 1;  // The proc backend serializes on processor 0.
  options.backend = RuntimeBackend::kMultiProcess;
  options.proc_factory = [](LrpcRuntime& runtime) {
    ProcHost::Options host_options;
    host_options.call_deadline_ms = 5000;
    return std::make_unique<ProcHost>(runtime, host_options);
  };
  options.fault_kinds = {FaultKind::kPeerProcessDeath,
                         FaultKind::kBindingRevocation,
                         FaultKind::kDomainTermination};
  options.fault_probability = 0.10;
  return options;
}

TEST(ProcChaosTest, SeededSchedulesHoldInvariantsAcrossRealProcessDeath) {
  SKIP_WITHOUT_FORK();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ChaosResult result = RunChaosSchedule(ProcChaosOptions(seed));
    EXPECT_TRUE(result.ok()) << "seed " << seed << ":\n"
                             << (result.undocumented.empty()
                                     ? (result.violations.empty()
                                            ? ""
                                            : result.violations.front())
                                     : result.undocumented.front());
    EXPECT_GT(result.calls_attempted, 0) << "seed " << seed;
  }
}

TEST(ProcChaosTest, KillScheduleFiresAllThreePhases) {
  SKIP_WITHOUT_FORK();
  // Enough operations that the deterministic phase cycle (pre-accept,
  // in-body, post-return) fires at least one full turn.
  ChaosOptions options = ProcChaosOptions(/*seed=*/7);
  options.operations = 120;
  options.fault_kinds = {FaultKind::kPeerProcessDeath};
  options.fault_probability = 0.25;
  options.allow_termination = false;
  ChaosResult result = RunChaosSchedule(options);
  EXPECT_TRUE(result.ok()) << (result.undocumented.empty()
                                   ? (result.violations.empty()
                                          ? ""
                                          : result.violations.front())
                                   : result.undocumented.front());
  const auto fired = result.fired_by_kind[static_cast<std::size_t>(
      FaultKind::kPeerProcessDeath)];
  EXPECT_GE(fired, 3u) << "want at least one full kill-phase cycle";
}

TEST(ProcChaosTest, SupervisedScheduleRecoversAcrossRealProcessDeath) {
  SKIP_WITHOUT_FORK();
  ChaosOptions options = ProcChaosOptions(/*seed=*/11);
  options.supervision = true;
  options.supervision_policy.retry.max_attempts = 3;
  ChaosResult result = RunChaosSchedule(options);
  EXPECT_TRUE(result.ok()) << (result.undocumented.empty()
                                   ? (result.violations.empty()
                                          ? ""
                                          : result.violations.front())
                                   : result.undocumented.front());
}

// --- Async batches: one doorbell pair per flush (docs/async.md). ---

TEST(ProcAsyncTest, BatchedFlushAmortizesTheDoorbellAcrossTheBatch) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  AsyncRing ring(world.runtime(), world.binding(), world.client_thread(),
                 /*depth=*/8);
  std::int32_t sums[4] = {};
  std::uint8_t in[kBigSize];
  std::uint8_t out[kBigSize] = {};
  for (std::size_t i = 0; i < kBigSize; ++i) {
    in[i] = static_cast<std::uint8_t>(i * 5 + 1);
  }
  std::int32_t lhs[4];
  std::int32_t rhs[4];
  for (int i = 0; i < 4; ++i) {
    lhs[i] = 100 * i;
    rhs[i] = i;
    const CallArg args[] = {CallArg::Of(lhs[i]), CallArg::Of(rhs[i])};
    const CallRet rets[] = {CallRet::Of(&sums[i])};
    ASSERT_TRUE(ring.Submit(world.cpu(), world.add_proc(), args, rets).ok());
  }
  {
    const CallArg args[] = {CallArg(in, kBigSize)};
    const CallRet rets[] = {CallRet(out, kBigSize)};
    ASSERT_TRUE(
        ring.Submit(world.cpu(), world.biginout_proc(), args, rets).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.Submit(world.cpu(), world.null_proc(), {}, {}).ok());
  }
  ring.Drain(world.cpu());

  ASSERT_EQ(ring.results().size(), 8u);
  for (const AsyncCompletion& done : ring.results()) {
    EXPECT_TRUE(done.status.ok()) << ErrorCodeName(done.status.code());
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sums[i], 100 * i + i);
  }
  for (std::size_t i = 0; i < kBigSize; ++i) {
    ASSERT_EQ(out[i], in[kBigSize - 1 - i]) << "at " << i;
  }
  // Every handler ran in the server process, and the whole batch crossed
  // the channel behind ONE doorbell pair: one transfer, not eight.
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 8u);
  EXPECT_EQ(world.host().transfers(), 1u);
}

TEST(ProcAsyncTest, MidBatchDeathIsTriagedPerEntry) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  // Drive the transport directly: four Nulls with a SIGKILL armed inside
  // the server body — the child dies halfway (before entry batch/2 == 2),
  // so the done words split the batch into finished and unfinished halves.
  ProcTransport::BatchCall calls[4];
  for (ProcTransport::BatchCall& call : calls) {
    call.procedure = world.null_proc();
  }
  ASSERT_TRUE(world.host()
                  .ExecuteBatch(world.server_domain(), world.client_domain(),
                                std::span<ProcTransport::BatchCall>(calls),
                                ProcTransport::KillPhase::kInServerBody)
                  .ok());
  EXPECT_TRUE(calls[0].leg.ok());
  EXPECT_TRUE(calls[0].handler_status.ok());
  EXPECT_TRUE(calls[1].leg.ok());
  EXPECT_EQ(calls[2].leg.code(), ErrorCode::kCallFailed);
  EXPECT_EQ(calls[3].leg.code(), ErrorCode::kCallFailed);
  // The corpse was reaped synchronously; collect it so teardown is clean.
  EXPECT_EQ(world.host().CollectDead(), 1);
}

TEST(ProcAsyncTest, PreAcceptBatchDeathIsRetryableForEveryEntry) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  ProcTransport::BatchCall calls[3];
  for (ProcTransport::BatchCall& call : calls) {
    call.procedure = world.null_proc();
  }
  ASSERT_TRUE(world.host()
                  .ExecuteBatch(world.server_domain(), world.client_domain(),
                                std::span<ProcTransport::BatchCall>(calls),
                                ProcTransport::KillPhase::kBeforeAccept)
                  .ok());
  for (const ProcTransport::BatchCall& call : calls) {
    EXPECT_EQ(call.leg.code(), ErrorCode::kPeerDied);
    EXPECT_TRUE(IsRetryable(call.leg.code()));
  }
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 0u);
  EXPECT_EQ(world.host().CollectDead(), 1);
}

// A world whose procedure has an A-stack window over 1 KB: Wide echoes
// kWideBytes reversed and reports the pid of the process that ran it.
constexpr std::size_t kWideBytes = 2000;

struct WideWorld {
  Machine machine{MachineModel::CVaxFirefly(), 1};
  Kernel kernel{machine};
  LrpcRuntime runtime{kernel, RuntimeBackend::kMultiProcess};
  ProcHost host{runtime};  // Declared after the runtime: destroyed first.
  DomainId client = kNoDomain;
  DomainId server = kNoDomain;
  ThreadId thread = kNoThread;
  ClientBinding* binding = nullptr;
  int null_proc = -1;
  int wide_proc = -1;
  Status status = Status::Ok();

  WideWorld() {
    client = kernel.CreateDomain({.name = "wide-client"});
    server = kernel.CreateDomain({.name = "wide-server"});
    thread = kernel.CreateThread(client);
    Interface* iface = runtime.CreateInterface(server, "proc.Wide");
    ProcedureDef null_def;
    null_def.name = "Null";
    null_def.handler = [](ServerFrame&) { return Status::Ok(); };
    null_proc = iface->AddProcedure(std::move(null_def));
    ProcedureDef def;
    def.name = "Wide";
    def.params.push_back({.name = "in", .direction = ParamDirection::kIn,
                          .size = kWideBytes});
    def.params.push_back({.name = "out", .direction = ParamDirection::kOut,
                          .size = kWideBytes});
    def.params.push_back({.name = "pid", .direction = ParamDirection::kOut,
                          .size = sizeof(std::int32_t)});
    def.handler = [](ServerFrame& frame) -> Status {
      std::uint8_t buffer[kWideBytes];
      Result<std::size_t> n = frame.ReadArg(0, buffer, sizeof(buffer));
      if (!n.ok()) {
        return n.status();
      }
      std::reverse(buffer, buffer + kWideBytes);
      LRPC_RETURN_IF_ERROR(frame.WriteResult(1, buffer, kWideBytes));
      const auto pid = static_cast<std::int32_t>(getpid());
      return frame.Result_<std::int32_t>(2, pid);
    };
    wide_proc = iface->AddProcedure(std::move(def));
    status = runtime.Export(iface);
    if (status.ok()) {
      status = host.SpawnServer(server, iface);
    }
    if (status.ok()) {
      Result<ClientBinding*> bound =
          runtime.Import(machine.processor(0), client, iface->name());
      status = bound.status();
      binding = bound.ok() ? *bound : nullptr;
    }
    machine.processor(0).LoadContext(kernel.domain(client).vm_context());
    kernel.thread(thread).set_current_domain(client);
  }
};

TEST(ProcAsyncTest, LargeWindowsBatchBehindOneTransfer) {
  SKIP_WITHOUT_FORK();
  WideWorld world;
  ASSERT_TRUE(world.status.ok()) << world.status.detail();
  ASSERT_GT(world.binding->interface_spec()->pd(world.wide_proc).astack_size,
            std::size_t{1024});
  Processor& cpu = world.machine.processor(0);

  // Two Wide windows between Nulls: the whole flush still crosses behind
  // one doorbell pair, because an entry names its A-stack instead of
  // carrying its bytes.
  AsyncRing ring(world.runtime, *world.binding, world.thread, /*depth=*/4);
  std::uint8_t in[2][kWideBytes];
  std::uint8_t out[2][kWideBytes] = {};
  std::int32_t pid[2] = {};
  for (int c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < kWideBytes; ++i) {
      in[c][i] = static_cast<std::uint8_t>(i * (c + 3) + 7);
    }
  }
  ASSERT_TRUE(ring.Submit(cpu, world.null_proc, {}, {}).ok());
  for (int c = 0; c < 2; ++c) {
    const CallArg args[] = {CallArg(in[c], kWideBytes)};
    const CallRet rets[] = {CallRet(out[c], kWideBytes), CallRet::Of(&pid[c])};
    ASSERT_TRUE(ring.Submit(cpu, world.wide_proc, args, rets).ok());
  }
  ASSERT_TRUE(ring.Submit(cpu, world.null_proc, {}, {}).ok());
  ring.Drain(cpu);

  ASSERT_EQ(ring.results().size(), 4u);
  for (const AsyncCompletion& done : ring.results()) {
    EXPECT_TRUE(done.status.ok()) << ErrorCodeName(done.status.code());
  }
  for (int c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < kWideBytes; ++i) {
      ASSERT_EQ(out[c][i], in[c][kWideBytes - 1 - i]) << c << " at " << i;
    }
    // The server process ran it, not this one.
    EXPECT_EQ(pid[c], world.host.peer_pid(world.server));
    EXPECT_NE(pid[c], static_cast<std::int32_t>(getpid()));
  }
  EXPECT_EQ(world.host.transfers(), 1u);
}

TEST(ProcAsyncTest, MidBatchDeathKeepsFinishedResults) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  // Four BigInOut calls in one flush, with the server armed to die inside
  // its body: it finishes entries 0 and 1, then SIGKILLs itself before
  // entry 2. The collector runs inside the flush and unmaps the server's
  // segment — the arena the finished calls' results sit in — before their
  // copy-out; the results must survive it.
  AsyncRing ring(world.runtime(), world.binding(), world.client_thread(),
                 /*depth=*/4);
  std::uint8_t in[4][kBigSize];
  std::uint8_t out[4][kBigSize] = {};
  CallToken tokens[4] = {};
  for (int c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < kBigSize; ++i) {
      in[c][i] = static_cast<std::uint8_t>(i * (c + 2) + 11);
    }
    const CallArg args[] = {CallArg(in[c], kBigSize)};
    const CallRet rets[] = {CallRet(out[c], kBigSize)};
    Result<CallToken> token =
        ring.Submit(world.cpu(), world.biginout_proc(), args, rets);
    ASSERT_TRUE(token.ok());
    tokens[c] = *token;
  }
  // The injector fires on the flush's one routing decision; its first hit
  // selects the in-body phase (hits % 3 == 1).
  FaultInjector injector(
      FaultPlan::SeededRandom(1.0, {FaultKind::kPeerProcessDeath}), 7);
  world.kernel().set_fault_injector(&injector);
  ring.Drain(world.cpu());
  world.kernel().set_fault_injector(nullptr);

  ASSERT_EQ(ring.results().size(), 4u);
  for (const AsyncCompletion& done : ring.results()) {
    const int c = done.token == tokens[0]   ? 0
                  : done.token == tokens[1] ? 1
                  : done.token == tokens[2] ? 2
                                            : 3;
    if (c < 2) {
      ASSERT_TRUE(done.status.ok()) << c << ": "
                                    << ErrorCodeName(done.status.code());
      for (std::size_t i = 0; i < kBigSize; ++i) {
        ASSERT_EQ(out[c][i], in[c][kBigSize - 1 - i]) << c << " at " << i;
      }
    } else {
      EXPECT_EQ(done.status.code(), ErrorCode::kCallFailed) << c;
    }
  }
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 2u);
  // The collector reclaimed the dead server's segment.
  EXPECT_EQ(world.host().live_endpoints(), 0u);
  EXPECT_EQ(world.host().mapped_segments(), 0u);
}

TEST(ProcChaosTest, AsyncBurstSchedulesSurviveRealProcessDeath) {
  SKIP_WITHOUT_FORK();
  // The full combination: chaos schedules drive AsyncRing bursts against
  // real forked servers with kill phases armed — batched doorbells, per-
  // entry death triage and the collector, all under the invariant checker.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ChaosOptions options = ProcChaosOptions(seed * 31);
    options.async_depth = 4;
    ChaosResult result = RunChaosSchedule(options);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ":\n"
                             << (result.undocumented.empty()
                                     ? (result.violations.empty()
                                            ? ""
                                            : result.violations.front())
                                     : result.undocumented.front());
    EXPECT_GT(result.async_bursts, 0) << "seed " << seed;
  }
}

TEST(ProcChaosTest, DeterministicReplayHoldsOnTheProcBackend) {
  SKIP_WITHOUT_FORK();
  // The schedule trace is a pure function of the options even with real
  // processes behind it: the kill phases are counter-cycled, not timed.
  ChaosResult a = RunChaosSchedule(ProcChaosOptions(/*seed=*/21));
  ChaosResult b = RunChaosSchedule(ProcChaosOptions(/*seed=*/21));
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.trace, b.trace);
}

}  // namespace
}  // namespace lrpc
