// The LRPC call/return fast path (Section 3.2) and the cross-machine branch
// (Section 5.1).

#include <cstring>

#include "src/common/check.h"
#include "src/common/fast_path.h"
#include "src/common/logging.h"
#include "src/lrpc/proc_transport.h"
#include "src/lrpc/runtime.h"
#include "src/lrpc/server_frame.h"
#include "src/lrpc/wire.h"

namespace lrpc {

namespace {

// Virtual-page touch trace of one call, for the TLB model (counts only; the
// latency consequence of misses is folded into the calibrated constants).
// The layout reproduces the paper's estimate of 43 TLB misses per Null call
// in steady state on a single processor (Section 4).
constexpr int kClientStubPages = 5;    // Stub code, caller stack, queue.
constexpr std::uint64_t kClientBindingPageOffset = 8;
constexpr int kClientBindingPages = 2; // Binding Object, A-stack list.
constexpr std::uint64_t kClientAStackPageOffset = 6;
constexpr int kKernelCallPages = 14;   // Call-leg kernel code + tables.
constexpr std::uint64_t kKernelReturnPageOffset = 16;
constexpr int kKernelReturnPages = 11; // Return-leg kernel code + tables.
constexpr int kServerPages = 10;       // Entry stub, procedure, E-stack, PD.

}  // namespace

Status LrpcRuntime::CallByName(Processor& cpu, ThreadId thread,
                               ClientBinding& binding, std::string_view procedure,
                               std::span<const CallArg> args,
                               std::span<const CallRet> rets, CallStats* stats) {
  Result<int> index = binding.interface_spec()->FindProcedure(procedure);
  if (!index.ok()) {
    return index.status();
  }
  return Call(cpu, thread, binding, *index, args, rets, stats);
}

// The public entry point: runs the call and folds its per-call stats into
// the runtime-wide counters.
Status LrpcRuntime::Call(Processor& cpu, ThreadId thread_id,
                         ClientBinding& binding, int procedure,
                         std::span<const CallArg> args,
                         std::span<const CallRet> rets, CallStats* stats) {
  return CallAccounted(cpu, thread_id, binding, procedure, args, rets, stats,
                       nullptr);
}

Status LrpcRuntime::CallInline(Processor& cpu, ThreadId thread_id,
                               ClientBinding& binding, int procedure,
                               const void* block_in, void* block_out,
                               CallStats* stats) {
  const Interface* iface = binding.interface_spec();
  if (procedure < 0 || procedure >= iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  const ProcedureDescriptor& pd = iface->pd(procedure);
  if (!pd.inline_eligible) {
    return Status(ErrorCode::kInvalidArgument,
                  "procedure is not inline-eligible");
  }
  if (binding.object().remote) {
    // Uncommon case: the wire path has no register window, so re-expand the
    // caller's window into per-parameter spans and take the general path.
    const ProcedureDef& def = *pd.def;
    std::vector<CallArg> args;
    std::vector<CallRet> rets;
    for (std::size_t i = 0; i < def.params.size(); ++i) {
      const ParamDesc& p = def.params[i];
      const std::size_t offset = ParamOffset(def, i);
      if (p.is_in()) {
        args.emplace_back(static_cast<const std::byte*>(block_in) + offset,
                          p.size);
      }
      if (p.is_out()) {
        rets.emplace_back(static_cast<std::byte*>(block_out) + offset, p.size);
      }
    }
    return CallAccounted(cpu, thread_id, binding, procedure, args, rets,
                         stats, nullptr);
  }
  const InlineWindow win{static_cast<const std::byte*>(block_in),
                         static_cast<std::byte*>(block_out)};
  return CallAccounted(cpu, thread_id, binding, procedure, {}, {}, stats,
                       &win);
}

Status LrpcRuntime::CallAccounted(Processor& cpu, ThreadId thread_id,
                                  ClientBinding& binding, int procedure,
                                  std::span<const CallArg> args,
                                  std::span<const CallRet> rets,
                                  CallStats* stats, const InlineWindow* win) {
  CallStats local_stats;
  CallStats& cs = stats != nullptr ? *stats : local_stats;
  cs = CallStats{};
  const SimTime trace_start = cpu.clock();
  const Status status =
      CallLocal(cpu, thread_id, binding, procedure, args, rets, cs, win);

  if (tracer_ != nullptr) {
    TraceEvent event;
    event.kind = binding.object().remote ? TraceEventKind::kRemoteCall
                                         : TraceEventKind::kCall;
    event.start = trace_start;
    event.end = cpu.clock();
    event.client = binding.client();
    event.server = binding.record() != nullptr ? binding.record()->server
                                               : kNoDomain;
    event.procedure = procedure;
    event.bytes = static_cast<std::uint32_t>(cs.astack_bytes);
    event.result = status.code();
    event.exchanged = cs.exchanged_on_call || cs.exchanged_on_return;
    tracer_->Record(event);
  }

  ++stats_.calls;
  if (binding.object().remote) {
    ++stats_.remote_calls;
  }
  if (!status.ok()) {
    ++stats_.failed_calls;
  }
  if (cs.exchanged_on_call || cs.exchanged_on_return) {
    ++stats_.exchange_calls;
  }
  if (cs.used_secondary_astack) {
    ++stats_.secondary_astack_calls;
  }
  if (cs.used_out_of_band) {
    ++stats_.out_of_band_transfers;
  }
  stats_.copies += cs.copies;
  stats_.astack_bytes += cs.astack_bytes;
  return status;
}

// The per-worker entry of the parallel-host backend: the same fast path,
// minus the runtime-wide stats fold and the tracer — both are shared
// mutable state no concurrent call may touch. Workers aggregate their own
// CallStats and the ParallelMachine folds them after the join.
Status LrpcRuntime::CallParallel(Processor& cpu, ThreadId thread_id,
                                 ClientBinding& binding, int procedure,
                                 std::span<const CallArg> args,
                                 std::span<const CallRet> rets, CallStats& cs) {
  LRPC_CHECK(backend_ == RuntimeBackend::kParallelHost);
  cs = CallStats{};
  return CallLocal(cpu, thread_id, binding, procedure, args, rets, cs);
}

Status LrpcRuntime::CallInlineParallel(Processor& cpu, ThreadId thread_id,
                                       ClientBinding& binding, int procedure,
                                       const void* block_in, void* block_out,
                                       CallStats& cs) {
  LRPC_CHECK(backend_ == RuntimeBackend::kParallelHost);
  cs = CallStats{};
  const Interface* iface = binding.interface_spec();
  if (procedure < 0 || procedure >= iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  if (!iface->pd(procedure).inline_eligible) {
    return Status(ErrorCode::kInvalidArgument,
                  "procedure is not inline-eligible");
  }
  const InlineWindow win{static_cast<const std::byte*>(block_in),
                         static_cast<std::byte*>(block_out)};
  return CallLocal(cpu, thread_id, binding, procedure, {}, {}, cs, &win);
}

// The common-case call in its phases: StubCall (the client stub's call
// half), then KernelLeg (trap, validation, transfer, server stub, return
// leg) ending in each call's CopyOut (the client stub's return half). A
// synchronous call is a leg of one; an AsyncRing flush is a leg of many.
// Everything here is "a handful of moves and a trap" — lrpc_lint rejects
// allocation, logging and lock acquisition until the matching END (rule
// lrpc-fast-path).
LRPC_FAST_PATH_BEGIN("lrpc call/return");

// The register window must hold any eligible procedure's full slot span.
static_assert(kInlineSlotSpanLimit <= kLinkageRegsSize,
              "inline slot-span cap exceeds the linkage register window");

// The inline path's copies: A (`to_server`) moves the caller's packed
// window into the linkage record's registers, F moves the registers back
// out; the stub scatters from slot offsets. One memcpy each way — no
// per-argument rights-checked segment writes. The model charges stay
// per-argument (summed, then charged once) so the deterministic backend's
// ledger and clock are tick-identical to the general path.
void LrpcRuntime::CopyInline(Processor& cpu, const ProcedureDescriptor& pd,
                             LinkageRecord& linkage, const InlineWindow& win,
                             CallStats& cs, bool to_server) {
  if (pd.slot_span > 0 && to_server) {
    std::memcpy(linkage.regs, win.block_in, pd.slot_span);
  } else if (pd.slot_span > 0) {
    std::memcpy(win.block_out, linkage.regs, pd.slot_span);
  }
  const MachineModel& model = machine().model();
  SimDuration charge = 0;
  for (const ParamDesc& p : pd.def->params) {
    if (to_server ? !p.is_in() : !p.is_out()) {
      continue;
    }
    charge += model.lrpc_copy_per_arg +
              Micros(model.lrpc_copy_per_byte_us * static_cast<double>(p.size));
    cs.copies.Count(to_server ? CopyOp::kA : CopyOp::kF, p.size);
    cs.astack_bytes += p.size;
  }
  if (charge > 0) {
    cpu.Charge(CostCategory::kArgumentCopy, charge);
  }
}

// Flattened so the compiler inlines StubCall and KernelLeg here and
// specializes the leg for its one-element span: without it the synchronous
// path pays for the batch bookkeeping in host time (about 10% of the
// benchmark's par-small-1 calls/s on a 4-core x86-64 host).
[[gnu::flatten]] Status LrpcRuntime::CallLocal(
    Processor& cpu, ThreadId thread_id, ClientBinding& binding, int procedure,
    std::span<const CallArg> args, std::span<const CallRet> rets,
    CallStats& cs, const InlineWindow* win) {
  PendingCall call{.procedure = procedure, .win = win, .rets = rets};
  Status status = StubCall(cpu, thread_id, binding, args, call);
  if (call.remote && win == nullptr) {
    return RemoteCall(cpu, thread_id, binding, procedure, args, rets, cs);
  }
  if (status.ok()) {
    // A synchronous call is a kernel leg of one.
    (void)KernelLeg(cpu, thread_id, binding, std::span<PendingCall>(&call, 1),
                    /*deadline=*/0);
    status = call.status;
  }
  cs = call.stats;
  return status;
}

Status LrpcRuntime::StubCall(Processor& cpu, ThreadId thread_id,
                             ClientBinding& binding,
                             std::span<const CallArg> args, PendingCall& call) {
  const MachineModel& model = machine().model();
  Thread* t = kernel_.FindThread(thread_id);
  if (t == nullptr || t->state() == ThreadState::kDead) {
    return Status(ErrorCode::kNoSuchThread);
  }
  if (t->current_domain() != binding.client()) {
    return Status(ErrorCode::kPermissionDenied,
                  "thread is not executing in the binding's client domain");
  }

  // A simple LRPC needs only one formal procedure call — into the client
  // stub (Section 3.3).
  cpu.Charge(CostCategory::kProcedureCall, model.procedure_call);

  // "Deciding whether a call is cross-domain or cross-machine is made at
  // the earliest possible moment — the first instruction of the stub"
  // (Section 5.1). Only a synchronous general call has a wire path
  // (CallLocal takes it); a register window or a ring slot cannot cross.
  if (binding.object().remote) {
    call.remote = true;
    return Status(ErrorCode::kInvalidArgument,
                  "inline and async calls cannot cross machines");
  }

  const Interface* iface = binding.interface_spec();
  if (call.procedure < 0 || call.procedure >= iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  const ProcedureDescriptor& pd = iface->pd(call.procedure);
  call.pd = &pd;
  Domain* client = kernel_.FindDomain(binding.client());
  LRPC_CHECK(client != nullptr);

  // The stub cost outside the two queue critical sections; the queue ops
  // themselves are charged while the per-queue lock is held.
  const SimDuration stub_outside_locks =
      model.lrpc_client_stub - 2 * model.astack_queue_lock_hold;
  cpu.Charge(CostCategory::kClientStub, stub_outside_locks);
  kernel_.TouchPages(cpu, client->page_base(), kClientStubPages);
  kernel_.TouchPages(cpu, client->page_base() + kClientBindingPageOffset,
                     kClientBindingPages);
  kernel_.TouchPages(cpu, client->page_base() + kClientAStackPageOffset, 1);

  // Take an A-stack off the procedure's LIFO queue. The injection point
  // makes the queue read as empty: the pool is exhausted (Section 5.2).
  // Under the parallel-host backend the binding carries a real-thread
  // overlay of the free list; every pop and push on this path goes through
  // it instead of the SimLock-guarded queue (docs/concurrency.md), and the
  // simulated queue is not even looked up.
  call.par_list = binding.par_queue(pd.astack_group);
  call.queue =
      call.par_list == nullptr ? &binding.queue(pd.astack_group) : nullptr;
  Result<AStackRef> astack_result =
      FaultPointFires(kernel_.fault_injector(), FaultKind::kAStackExhaustion)
          ? Result<AStackRef>(
                Status(ErrorCode::kAStacksExhausted, "fault injection: empty"))
      : call.par_list != nullptr
          ? call.par_list->Pop(cpu, model.astack_queue_lock_hold)
          : call.queue->Pop(cpu, model.astack_queue_lock_hold);
  if (!astack_result.ok()) {
    // Growing mutates the binding's region list, which concurrent calls
    // read without a lock; parallel worlds provision a fixed set instead.
    if (call.par_list != nullptr ||
        binding.exhaustion_policy() != AStackExhaustionPolicy::kAllocateMore) {
      return astack_result.status();
    }
    LRPC_RETURN_IF_ERROR(GrowAStacks(cpu, binding, pd.astack_group));
    astack_result = call.queue->Pop(cpu, model.astack_queue_lock_hold);
    if (!astack_result.ok()) {
      return astack_result.status();
    }
  }
  call.astack = *astack_result;
  // The pop transferred ownership of the A-stack/linkage pair to this
  // thread (the free list's release/acquire edge), so the linkage is
  // already writable here — the inline path fills its register window
  // before the trap, exactly where the general path fills the A-stack.
  LinkageRecord& linkage = call.astack.linkage();
  if (linkage.in_use) {
    // Ensure no other thread is using this A-stack/linkage pair.
    Requeue(cpu, call);
    return Status(ErrorCode::kAStackInUse);
  }
  if (call.astack.region->secondary()) {
    call.stats.used_secondary_astack = true;
  }

  // Push the arguments onto the A-stack (copy A; Modula2+ conventions with
  // a separate argument pointer make this directly usable by the server) —
  // or, on the inline path, move the caller's packed window into the
  // linkage record's registers with a single copy (Section 2.2).
  if (call.win != nullptr) {
    CopyInline(cpu, pd, linkage, *call.win, call.stats, /*to_server=*/true);
  } else {
    const Status marshal = MarshalArguments(cpu, client->id(), *pd.def,
                                            call.astack, args, &call.stats,
                                            &call.oob);
    if (!marshal.ok()) {
      // Nothing is claimed yet: release the spilled segments and the
      // A-stack, and announce no return.
      Retire(cpu, nullptr, call, marshal, /*requeue=*/false);
      Requeue(cpu, call);
      return marshal;
    }
  }

  // Claim the linkage and record the caller's return state. The kernel
  // stamps and pushes it when the call enters the server. (An AsyncRing,
  // whose claims outlive the stub, registers them with the thread's
  // pending set so the invariant checker audits them meanwhile: I5.)
  linkage.in_use = true;
  linkage.caller_thread = thread_id;
  linkage.caller_domain = client->id();
  linkage.procedure = static_cast<std::uint32_t>(call.procedure);
  linkage.return_address = 0x4000 + static_cast<std::uint64_t>(call.procedure);
  linkage.saved_stack_pointer = t->user_sp();
  return Status::Ok();
}

bool LrpcRuntime::KernelLeg(Processor& cpu, ThreadId thread_id,
                            ClientBinding& binding,
                            std::span<PendingCall> calls,
                            SimDuration deadline) {
  LRPC_CHECK(calls.size() <= kMaxLegCalls);
  const MachineModel& model = machine().model();
  Thread* t = kernel_.FindThread(thread_id);
  if (t == nullptr || t->state() == ThreadState::kDead) {
    // The thread died after its stub ran (an async ring's submit/flush
    // gap). If the binding is still live the claims go back to the free
    // lists; if the client domain terminated, the regions died with the
    // binding and never rejoin a queue.
    const bool live =
        kernel_.bindings().CheckValidate(binding.object(), binding.client()).ok();
    for (PendingCall& call : calls) {
      Retire(cpu, t, call,
             Status(ErrorCode::kNoSuchThread,
                    "the thread died before its kernel leg"),
             live);
    }
    return false;
  }
  FaultInjector* injector = kernel_.fault_injector();
  Domain& client = kernel_.domain(binding.client());

  // Put the A-stack addresses, Binding Object and procedure identifiers in
  // registers and trap to the kernel — once for the whole leg.
  kernel_.ChargeTrap(cpu);

  // --- Kernel, call leg: executed in the context of the client's thread.
  // Verify the Binding once, through the per-thread binding cache: a repeat
  // call skips even the seqlock read until a table mutation bumps the
  // generation (docs/fast_path.md). ---
  Result<BindingRecord*> record_result = kernel_.bindings().Validate(
      binding.object(), binding.client(), cpu.id());
  BindingRecord* record = record_result.ok() ? *record_result : nullptr;
  int entered = 0;
  for (PendingCall& call : calls) {
    cpu.Charge(CostCategory::kKernelPath, model.lrpc_kernel_call);
    kernel_.TouchPages(cpu, kernel_.kernel_page_base(), kKernelCallPages);
    // A rejected call returns to its stub with its A-stack requeued.
    if (record == nullptr) {
      Retire(cpu, t, call, record_result.status(), /*requeue=*/true);
      continue;
    }
    if (call.procedure >=
        static_cast<const Interface*>(record->pdl)->procedure_count()) {
      Retire(cpu, t, call, Status(ErrorCode::kNoSuchProcedure), /*requeue=*/true);
      continue;
    }
    // Verify the A-stack and locate the corresponding linkage. The primary
    // region validates with a simple range check; secondary regions (later
    // allocations) take slightly more time (Section 5.2).
    bool region_of_binding = false;
    for (const auto& region : record->regions) {
      region_of_binding = region_of_binding || region.get() == call.astack.region;
    }
    if (!region_of_binding) {
      Retire(cpu, t, call, Status(ErrorCode::kInvalidAStack, "A-stack not of this binding"),
             /*requeue=*/true);
      continue;
    }
    if (call.astack.region->secondary()) {
      cpu.Charge(CostCategory::kKernelPath, model.lrpc_secondary_astack_check);
    }
    Result<int> validated_index =
        call.astack.region->ValidateOffset(call.astack.offset());
    if (!validated_index.ok() || *validated_index != call.astack.index) {
      Retire(cpu, t, call, Status(ErrorCode::kInvalidAStack), /*requeue=*/true);
      continue;
    }
    // Stamp the claimed linkage: from here it belongs to an accepted call.
    LinkageRecord& linkage = call.astack.linkage();
    linkage.valid = true;
    linkage.seq = t->NextLinkageSeq();
    linkage.binding = record->id;
    kernel_.NotifyEvent(KernelEventKind::kLinkageClaimed);
    // Find an execution stack in the server's domain (lazy A-stack/E-stack
    // association).
    Domain& server = kernel_.domain(record->server);
    Result<int> estack = kernel_.EnsureEStack(server, call.astack, cpu.clock());
    if (!estack.ok()) {
      Retire(cpu, t, call, estack.status(), /*requeue=*/true);
      continue;
    }
    call.estack = *estack;
    ++entered;
  }
  if (entered == 0) {
    // Nothing survived validation: back to the stub through the return
    // trap, with no domain transfer.
    kernel_.ChargeTrap(cpu);
    return true;
  }

  // Reload the virtual memory registers with the server domain's — or, on
  // a multiprocessor, exchange processors with one idling in the server's
  // context (Section 3.4).
  Domain& server = kernel_.domain(record->server);
  const Kernel::TransferResult call_transfer =
      kernel_.EnterDomain(cpu, *t, server, /*allow_exchange=*/true);

  // Multi-process backend (docs/multiprocess.md): the server's real process
  // runs the calls straight off their A-stacks, which were carved from an
  // arena it shares — one doorbell for the whole leg, no bytes moved —
  // instead of this thread branching into the handler. A call whose
  // A-stack is not arena-backed (oversized A-stacks) or that spilled
  // out-of-band executes in-process as on the other backends.
  if (proc_ != nullptr && proc_->Serves(record->server)) {
    PendingCall* routed[kMaxLegCalls];
    std::size_t n = 0;
    for (PendingCall& call : calls) {
      if (call.done || !call.oob.empty() ||
          call.astack.region->arena() == nullptr) {
        continue;
      }
      const std::size_t len =
          call.win != nullptr ? call.pd->slot_span : call.pd->astack_size;
      std::uint8_t* window = call.win != nullptr
                                 ? call.astack.linkage().regs
                                 : call.astack.region->segment().DataUnchecked() +
                                       call.astack.offset();
      call.proc = {call.procedure, call.win != nullptr, window, len};
      call.routed = true;
      routed[n++] = &call;
    }
    ProcTransport::KillPhase kill = ProcTransport::KillPhase::kNone;
    if (n > 0 && FaultPointFires(injector, FaultKind::kPeerProcessDeath)) {
      // The phase cycles with the per-kind hit counter, so a seeded
      // schedule replays the same kill at the same protocol point.
      switch (injector->hits(FaultKind::kPeerProcessDeath) % 3) {
        case 0: kill = ProcTransport::KillPhase::kBeforeAccept; break;
        case 1: kill = ProcTransport::KillPhase::kInServerBody; break;
        default: kill = ProcTransport::KillPhase::kAfterReturn; break;
      }
    }
    if (n == 1) {
      ProcTransport::BatchCall& one = routed[0]->proc;
      one.leg = proc_->Execute(record->server, client.id(), one.procedure,
                               one.inline_window, one.window, one.window_len,
                               &one.handler_status, kill);
    } else if (n > 1) {
      ProcTransport::BatchCall batch[kMaxLegCalls];
      for (std::size_t i = 0; i < n; ++i) {
        batch[i] = routed[i]->proc;
      }
      (void)proc_->ExecuteBatch(record->server, client.id(),
                                std::span<ProcTransport::BatchCall>(batch, n),
                                kill);
      for (std::size_t i = 0; i < n; ++i) {
        routed[i]->proc = batch[i];
      }
    }
  }

  // --- Server side, one call at a time: the kernel upcalls into the entry
  // stub at the address in the PD; the E-stack is primed so the stub can
  // branch to the procedure's first instruction (Section 3.3). Each call's
  // linkage is on the thread's stack only while it executes, so the
  // collector, the captured-thread escape and the watchdog see exactly one
  // call. ---
  bool lost = false;     // The thread died (captured, or nowhere to unwind).
  bool unwound = false;  // The collector restarted the thread in a caller.
  bool peer_death_seen = false;
  for (PendingCall& call : calls) {
    if (call.done) {
      continue;
    }
    if (lost) {
      // Nothing can execute on a dead thread. A capture leaves the binding
      // intact (requeue); a revocation means the regions died with it.
      Retire(cpu, t, call,
             Status(ErrorCode::kCallAborted, "ring thread was abandoned mid-batch"),
             kernel_.bindings()
                 .CheckValidate(binding.object(), binding.client())
                 .ok());
      continue;
    }
    if (unwound) {
      // The server terminated under an earlier call: the collector revoked
      // the binding, so these A-stacks never rejoin a free list. Calls the
      // server process finished before dying keep their real results.
      Status status(ErrorCode::kCallFailed, "server domain terminated");
      if (call.routed && call.proc.leg.ok()) {
        call.stats.server_status = call.proc.handler_status;
        status = call.stats.server_status.ok()
                     ? CopyOut(cpu, client.id(), call)
                     : call.stats.server_status;
      } else if (call.routed &&
                 call.proc.leg.code() == ErrorCode::kPeerDied) {
        status = call.proc.leg;  // Never accepted: retryable.
      }
      Retire(cpu, t, call, status, /*requeue=*/false);
      continue;
    }

    LinkageRecord& linkage = call.astack.linkage();
    cpu.Charge(CostCategory::kServerStub, model.lrpc_server_stub);
    kernel_.TouchPages(cpu, server.page_base(), kServerPages);
    t->UnregisterAsyncPending(call.astack);
    t->PushLinkage(call.astack);
    t->set_user_sp(0x80000000ULL +
                   static_cast<std::uint64_t>(call.estack) * 0x10000ULL);
    call.stats.exchanged_on_call = call_transfer.exchanged;
    if (deadline > 0) {
      kernel_.ArmCallWatchdog(thread_id, cpu.clock() + deadline);
    }
    if (call.routed) {
      call.stats.server_status = call.proc.handler_status;
    } else {
      ServerFrame frame(this, cpu, *call.pd->def, call.astack, server.id(),
                        client.id(), thread_id, &call.stats.copies);
      if (call.win != nullptr) {
        // Inline path: the frame serves the handler straight from the
        // linkage record's register window; no A-stack slot decoding, no
        // segment rights checks.
        frame.AttachRegisterWindow(linkage.regs);
      }
      call.stats.server_status = frame.Dispatch();
    }
    const bool peer_pre_death =
        call.routed && call.proc.leg.code() == ErrorCode::kPeerDied;
    if (call.routed && !call.proc.leg.ok()) {
      // The real server process is a corpse: revoke its bindings, unwind
      // the visiting thread and reclaim its segments — the same collector
      // the simulated terminations run, now with a reaped child behind it.
      (void)TerminateDomain(record->server);
      if (!peer_death_seen) {
        kernel_.NotifyEvent(KernelEventKind::kPeerDeath);
        peer_death_seen = true;
      }
    }

    // Injected Section 5.3 emergencies, landing while the thread is still
    // in the server: the server domain terminates mid-call, or the client
    // gives up on its captured thread. Both run the real recovery paths.
    if (FaultPointFires(injector, FaultKind::kDomainTermination)) {
      (void)TerminateDomain(record->server);
    } else if (FaultPointFires(injector, FaultKind::kThreadCapture)) {
      (void)kernel_.AbandonCapturedCall(*t);
    }

    // --- Return leg for this call. Binding Object, procedure identifier
    // and A-stack were verified at call time; the linkage at the top of
    // the thread's stack makes them implicit now. ---
    cpu.Charge(CostCategory::kKernelPath, model.lrpc_kernel_return);
    kernel_.TouchPages(cpu, kernel_.kernel_page_base() + kKernelReturnPageOffset,
                       kKernelReturnPages);
    // The call watchdog (supervision layer): a call past its armed deadline
    // is abandoned here through the captured-thread escape, so the captured
    // branch below runs its normal cleanup. With no watchdog ever armed
    // this is a null check on an empty table.
    kernel_.PollCallWatchdog(cpu, *t);
    if (deadline > 0) {
      kernel_.DisarmCallWatchdog(thread_id);
    }

    if (t->captured()) {
      // The client abandoned this call (Section 5.3): the captured thread
      // is destroyed in the kernel when released. Its A-stack returns to
      // the free queue; the replacement thread already carries
      // call-aborted.
      if (t->HasLinkages() && t->linkage_stack().back() == call.astack) {
        t->PopLinkage();
      }
      Retire(cpu, nullptr, call,
             Status(ErrorCode::kCallAborted,
                    "thread was abandoned by its client"),
             /*requeue=*/true);
      kernel_.DestroyThread(*t);
      lost = true;
      continue;
    }

    if (!t->HasLinkages() || !(t->linkage_stack().back() == call.astack)) {
      // The termination collector unwound this thread while the procedure
      // ran (e.g. the server domain terminated itself): the thread is
      // already back in a caller domain carrying an exception. Restore the
      // processor context to wherever the thread now is.
      Domain* resumed_in = kernel_.FindDomain(t->current_domain());
      if (resumed_in != nullptr) {
        kernel_.EnterDomain(cpu, *t, *resumed_in, /*allow_exchange=*/true);
      }
      const ThreadException exc = t->TakeException();
      call.status =
          exc == ThreadException::kCallAborted ? Status(ErrorCode::kCallAborted)
          // The server process died before it accepted the call: the
          // handler never ran, so the failure is retryable.
          : peer_pre_death ? Status(ErrorCode::kPeerDied,
                                    "server process died before accepting "
                                    "the call")
                           : Status(ErrorCode::kCallFailed,
                                    "server domain terminated");
      call.done = true;
      unwound = true;
      continue;
    }

    t->PopLinkage();
    t->set_user_sp(linkage.saved_stack_pointer);
    call.astack.region->set_last_used(call.astack.index, cpu.clock());
    if (!linkage.valid) {
      // A party to the binding terminated while the call was outstanding:
      // returning control would enter a dead domain. Deliver call-failed to
      // the first valid linkage down the stack (Section 5.3).
      linkage.in_use = false;
      call.status = Status(ErrorCode::kCallFailed, "binding revoked during call");
      call.done = true;
      if (kernel_.UnwindWithException(*t, ThreadException::kCallFailed)) {
        Domain* resumed_in = kernel_.FindDomain(t->current_domain());
        if (resumed_in != nullptr) {
          kernel_.EnterDomain(cpu, *t, *resumed_in, /*allow_exchange=*/true);
        }
        t->TakeException();
        unwound = true;
      } else {
        lost = true;
      }
    }
  }

  // --- One return trap, then one switch (or exchange) back into the
  // client; likely exchangeable for calls that return quickly (Section
  // 3.4). A thread the collector moved elsewhere is already there. ---
  kernel_.ChargeTrap(cpu);
  bool exchanged_on_return = false;
  if (!lost && !unwound) {
    exchanged_on_return =
        kernel_.EnterDomain(cpu, *t, client, /*allow_exchange=*/true).exchanged;
  }

  // --- Client stub (return half), per returned call: copy the A-stack's
  // return values into their final destinations (copy F) and requeue the
  // A-stack. The A-stack stays claimed (in_use) across the return transfer
  // and the copy; it leaves "claimed" only by rejoining the free queue. ---
  for (PendingCall& call : calls) {
    if (call.done) {
      continue;
    }
    kernel_.TouchPages(cpu, client.page_base(), kClientStubPages);
    kernel_.TouchPages(cpu, client.page_base() + kClientAStackPageOffset, 1);
    call.stats.exchanged_on_return = exchanged_on_return;
    const Status& server_status = call.stats.server_status;
    Retire(cpu, nullptr, call,
           server_status.ok() ? CopyOut(cpu, client.id(), call) : server_status,
           /*requeue=*/true);
    // After a processor exchange the calling thread runs on a processor
    // whose cache is cold for the A-stack and client pages; the penalty
    // scales with the bytes moved through the A-stack (see MachineModel
    // calibration).
    if ((call.stats.exchanged_on_call || call.stats.exchanged_on_return) &&
        call.stats.astack_bytes > 0) {
      cpu.Charge(CostCategory::kProcessorExchange,
                 Micros(model.exchange_cold_per_byte_us *
                        static_cast<double>(call.stats.astack_bytes)));
    }
  }
  return !lost;
}

void LrpcRuntime::Retire(Processor& cpu, Thread* pending_of, PendingCall& call,
                         Status status, bool requeue) {
  call.status = status;
  call.done = true;
  if (pending_of != nullptr) {
    pending_of->UnregisterAsyncPending(call.astack);
  }
  // Out-of-band transfer segments are per-call; return them for reuse.
  for (std::uint64_t index : call.oob) {
    ReleaseOobSegment(index);
  }
  call.oob.clear();
  call.astack.linkage().in_use = false;
  if (requeue) {
    Requeue(cpu, call);
    kernel_.NotifyEvent(KernelEventKind::kCallReturned);
  }
}

void LrpcRuntime::Requeue(Processor& cpu, const PendingCall& call) {
  const SimDuration hold = machine().model().astack_queue_lock_hold;
  if (call.par_list != nullptr) {
    call.par_list->Push(cpu, call.astack, hold);
  } else {
    call.queue->Push(cpu, call.astack, hold);
  }
}

Status LrpcRuntime::CopyOut(Processor& cpu, DomainId client,
                            PendingCall& call) {
  if (call.win == nullptr) {
    return UnmarshalResults(cpu, client, *call.pd->def, call.astack, call.rets,
                            &call.stats);
  }
  CopyInline(cpu, *call.pd, call.astack.linkage(), *call.win, call.stats,
             /*to_server=*/false);
  return Status::Ok();
}

LRPC_FAST_PATH_END("lrpc call/return");

Status LrpcRuntime::RemoteCall(Processor& cpu, ThreadId thread_id,
                               ClientBinding& binding, int procedure,
                               std::span<const CallArg> args,
                               std::span<const CallRet> rets, CallStats& cs) {
  const MachineModel& model = machine().model();
  const Interface* iface = binding.interface_spec();
  if (procedure < 0 || procedure >= iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  const ProcedureDescriptor& pd = iface->pd(procedure);
  const ProcedureDef& def = *pd.def;

  Result<BindingRecord*> record_result = kernel_.bindings().Validate(
      binding.object(), binding.client(), cpu.id());
  if (!record_result.ok()) {
    return record_result.status();
  }
  BindingRecord* record = *record_result;
  Domain* server_domain = kernel_.FindDomain(record->server);
  if (server_domain == nullptr || !server_domain->alive()) {
    return Status(ErrorCode::kRemoteUnreachable, "remote server domain gone");
  }

  // The conventional network-RPC stub path: heavyweight stubs, message
  // buffers, protocol work, the wire, and a full unmarshal on the far side.
  cpu.Charge(CostCategory::kMsgStub, model.msg_stub);
  cpu.Charge(CostCategory::kMsgBufferMgmt, model.msg_buffer_mgmt);
  kernel_.ChargeTrap(cpu);

  // Client-side copies: stub stack -> message (A), client -> kernel (B).
  std::uint64_t bytes_out = 0;
  for (const CallArg& a : args) {
    bytes_out += a.len;
    cpu.Charge(CostCategory::kArgumentCopy,
               2 * (model.msg_copy_setup +
                    Micros(model.msg_copy_per_byte_us * static_cast<double>(a.len))));
    cs.copies.Count(CopyOp::kA, a.len);
    cs.copies.Count(CopyOp::kB, a.len);
  }
  // The wire: the request's packets go out (multi-packet calls pay the
  // stop-and-wait continuation penalty; Section 5.2).
  model.network.ChargeOneWay(cpu, bytes_out);

  // Server side: kernel -> server (C), message -> server stack (E); the
  // procedure executes against a scratch argument region standing in for
  // the unmarshaled message.
  AStackRegion scratch(binding.client(), record->server,
                       pd.astack_size, 1, /*secondary=*/false);
  const AStackRef scratch_ref{&scratch, 0};
  LRPC_RETURN_IF_ERROR(MarshalArguments(cpu, binding.client(), def,
                                        scratch_ref, args, nullptr));
  for (const CallArg& a : args) {
    cpu.Charge(CostCategory::kArgumentCopy,
               2 * (model.msg_copy_setup +
                    Micros(model.msg_copy_per_byte_us * static_cast<double>(a.len))));
    cs.copies.Count(CopyOp::kC, a.len);
    cs.copies.Count(CopyOp::kE, a.len);
  }
  cpu.Charge(CostCategory::kMsgDispatch, model.msg_dispatch);

  ServerFrame frame(this, cpu, def, scratch_ref, record->server,
                    binding.client(), thread_id, &cs.copies);
  const Status server_status = frame.Dispatch();
  cs.server_status = server_status;

  // Reply: results ride a message back (B', C'), then into the caller's
  // destinations (F, inside UnmarshalResults).
  std::uint64_t bytes_back = 0;
  if (server_status.ok()) {
    Status unmarshal = UnmarshalResults(cpu, binding.client(), def,
                                        scratch_ref, rets, &cs);
    if (!unmarshal.ok()) {
      return unmarshal;
    }
    for (const CallRet& r : rets) {
      bytes_back += r.len;
      cpu.Charge(CostCategory::kArgumentCopy,
                 2 * (model.msg_copy_setup +
                      Micros(model.msg_copy_per_byte_us *
                             static_cast<double>(r.len))));
      cs.copies.Count(CopyOp::kB, r.len);
      cs.copies.Count(CopyOp::kC, r.len);
    }
  }
  model.network.ChargeOneWay(cpu, bytes_back);  // The reply's packets.
  kernel_.ChargeTrap(cpu);
  return server_status;
}

}  // namespace lrpc
