// LrpcRuntime: the public facade of the LRPC facility.
//
// Ties together the kernel, the name server, the per-domain clerks and the
// client bindings, and implements the call/return fast path of Section 3.2:
//
//   client stub: pop A-stack, push arguments, trap
//   kernel:      verify Binding Object + procedure + A-stack, locate and
//                claim the linkage, push it on the thread's linkage stack,
//                find an E-stack, switch (or exchange) into the server
//   server stub: prime the frame, branch into the procedure
//   return:      trap; the linkage stack makes verification implicit;
//                switch back; client stub copies results out
//
// plus the uncommon cases of Section 5 (cross-machine bit, A-stack
// exhaustion, out-of-band arguments, domain termination, captured threads).

#ifndef SRC_LRPC_RUNTIME_H_
#define SRC_LRPC_RUNTIME_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/kern/kernel.h"
#include "src/lrpc/call_tracer.h"
#include "src/lrpc/clerk.h"
#include "src/lrpc/client_binding.h"
#include "src/lrpc/copy_stats.h"
#include "src/lrpc/interface.h"
#include "src/lrpc/proc_transport.h"
#include "src/nameserver/name_server.h"

namespace lrpc {

// One input argument as passed by the caller (client stack bytes).
struct CallArg {
  const void* data = nullptr;
  std::size_t len = 0;

  CallArg() = default;
  CallArg(const void* d, std::size_t n) : data(d), len(n) {}
  template <typename T>
  static CallArg Of(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return CallArg(&value, sizeof(T));
  }
  // A CallArg only borrows the caller's bytes; binding one to a temporary
  // would dangle before the call is made.
  template <typename T>
  static CallArg Of(const T&& value) = delete;
};

// One output destination (where the client stub copies results; the final
// destination is specified by the caller, Section 3.5).
struct CallRet {
  void* data = nullptr;
  std::size_t len = 0;

  CallRet() = default;
  CallRet(void* d, std::size_t n) : data(d), len(n) {}
  template <typename T>
  static CallRet Of(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return CallRet(value, sizeof(T));
  }
};

// Optional per-call observability.
struct CallStats {
  CopyStats copies;
  bool exchanged_on_call = false;
  bool exchanged_on_return = false;
  bool used_secondary_astack = false;
  bool used_out_of_band = false;
  std::size_t astack_bytes = 0;   // Bytes moved through the A-stack.
  Status server_status;           // The handler's own return status.
};

// Which execution engine drives the call path (docs/concurrency.md). The
// deterministic simulator is the default and is bit-identical to the
// pre-engine tree; the parallel-host backend runs one real std::thread per
// processor and routes the shared structures on the call path through their
// lock-free (or locked-baseline) re-implementations.
enum class RuntimeBackend : std::uint8_t {
  kDeterministicSim,
  kParallelHost,
  // Real protection domains: server domains are forked processes, the
  // argument window crosses a shared mmap segment behind a futex doorbell,
  // and peer death is a first-class protocol event (docs/multiprocess.md).
  kMultiProcess,
};

class LrpcRuntime {
 public:
  explicit LrpcRuntime(Kernel& kernel,
                       RuntimeBackend backend = RuntimeBackend::kDeterministicSim)
      : kernel_(kernel), backend_(backend) {}

  Kernel& kernel() { return kernel_; }
  Machine& machine() { return kernel_.machine(); }
  NameServer& names() { return names_; }
  RuntimeBackend backend() const { return backend_; }

  // --- Server side. ---
  // Creates an (unsealed) interface owned by the runtime.
  Interface* CreateInterface(DomainId server, std::string name);
  // Seals the interface if needed and exports it through the server's clerk.
  Status Export(Interface* iface);
  Clerk& clerk(DomainId domain);

  // --- Client side (binding; Section 3.1). ---
  // Imports `name`, running the kernel-mediated handshake with the server's
  // clerk; allocates the bind-time A-stacks pair-wise shared between the
  // two domains. Returns a runtime-owned binding; kInvalidArgument once the
  // real-thread engine has adopted the world (MarkAdopted).
  Result<ClientBinding*> Import(Processor& cpu, DomainId client,
                                std::string_view name);

  // --- Calling (Section 3.2). ---
  Status Call(Processor& cpu, ThreadId thread, ClientBinding& binding,
              int procedure, std::span<const CallArg> args,
              std::span<const CallRet> rets, CallStats* stats = nullptr);

  // The register-style inline path (Section 2.2, docs/fast_path.md): for a
  // procedure sealed inline-eligible, the caller packs its fixed-size
  // arguments into `block_in` at their slot offsets (pd.slot_span bytes;
  // null when the span is zero) and the runtime moves the whole window into
  // the linkage record with one copy — no per-argument rights-checked
  // A-stack writes. Results come back the same way through `block_out`
  // (which may alias `block_in`). Model charges and copy statistics are
  // identical to the general path, so the two are tick-identical in the
  // deterministic backend; only host-time differs. Returns
  // kInvalidArgument for procedures that are not inline-eligible.
  Status CallInline(Processor& cpu, ThreadId thread, ClientBinding& binding,
                    int procedure, const void* block_in, void* block_out,
                    CallStats* stats = nullptr);

  // Runtime-wide counters, accumulated across every call.
  struct RuntimeStats {
    std::uint64_t calls = 0;
    std::uint64_t remote_calls = 0;
    std::uint64_t failed_calls = 0;            // Any non-ok status.
    std::uint64_t exchange_calls = 0;          // Used the idle-processor path.
    std::uint64_t secondary_astack_calls = 0;  // Section 5.2 growth region.
    std::uint64_t out_of_band_transfers = 0;
    CopyStats copies;
    std::uint64_t astack_bytes = 0;
  };
  const RuntimeStats& stats() const { return stats_; }
  void ResetStats() { stats_ = RuntimeStats{}; }

  // Optional instrumentation: when set, every call, bind and termination is
  // recorded (the measurement facility behind the paper's Section 2 study).
  void set_tracer(CallTracer* tracer) { tracer_ = tracer; }
  CallTracer* tracer() { return tracer_; }

  // Convenience: look the procedure up by name first.
  Status CallByName(Processor& cpu, ThreadId thread, ClientBinding& binding,
                    std::string_view procedure, std::span<const CallArg> args,
                    std::span<const CallRet> rets, CallStats* stats = nullptr);

  // --- Parallel-host backend (src/par, docs/concurrency.md). ---
  // The per-worker call entry: the same fast path as Call(), minus the
  // runtime-wide stats fold and the tracer, both of which are shared
  // mutable state no concurrent call may touch. Only valid on the
  // kParallelHost backend; per-call numbers come back through `stats`.
  Status CallParallel(Processor& cpu, ThreadId thread, ClientBinding& binding,
                      int procedure, std::span<const CallArg> args,
                      std::span<const CallRet> rets, CallStats& stats);

  // CallInline for the parallel-host backend (same contract as CallInline,
  // same restrictions as CallParallel).
  Status CallInlineParallel(Processor& cpu, ThreadId thread,
                            ClientBinding& binding, int procedure,
                            const void* block_in, void* block_out,
                            CallStats& stats);

  // Marks the world as adopted by the real-thread engine
  // (ParallelMachine::AdoptWorld): from here on Import refuses, since a new
  // binding would have no real-thread free list and its calls would pop the
  // simulated queue from real threads.
  void MarkAdopted() { adopted_ = true; }

  // --- Multi-process backend (src/proc, docs/multiprocess.md). ---
  // Installs the transport the server-execution leg routes through on the
  // kMultiProcess backend (non-owning; a ProcHost owns it). Null detaches.
  // TerminateDomain notifies the transport so real corpses are reaped and
  // their shared segments reclaimed regardless of which side died first.
  void AttachProcTransport(ProcTransport* transport) { proc_ = transport; }
  ProcTransport* proc_transport() { return proc_; }

  // --- Out-of-band segments (Section 5.2). ---
  SharedSegment* OobSegment(std::uint64_t index);
  // Number of currently-live (unreleased) out-of-band segments.
  std::size_t LiveOobSegments() const;

  // --- Domain termination (Section 5.3). ---
  // Withdraws the domain's exports and runs the kernel collector.
  Status TerminateDomain(DomainId domain);

  // The captured-thread escape: abandon `captured`'s outstanding call,
  // get a fresh client thread carrying the call-aborted exception.
  Result<ThreadId> AbandonCapturedCall(ThreadId captured) {
    Thread* t = kernel_.FindThread(captured);
    if (t == nullptr) {
      return Status(ErrorCode::kNoSuchThread);
    }
    return kernel_.AbandonCapturedCall(*t);
  }

  const std::vector<std::unique_ptr<ClientBinding>>& bindings() const {
    return bindings_;
  }

 private:
  friend class ServerFrame;
  // The async ring (src/lrpc/async_call.h) drives the same two phases as
  // CallLocal: its Submit is StubCall into a slot, its Flush is KernelLeg
  // over the pending slots.
  friend class AsyncRing;

  // The most calls one kernel leg carries (an AsyncRing's depth ceiling).
  static constexpr int kMaxLegCalls = 16;

  // Grows a binding's A-stack supply with a secondary region (Section 5.2).
  Status GrowAStacks(Processor& cpu, ClientBinding& binding, int group);

  // The caller-side window of one inline call: packed argument bytes in,
  // packed result bytes out, both laid out at the procedure's slot offsets.
  struct InlineWindow {
    const std::byte* block_in = nullptr;
    std::byte* block_out = nullptr;
  };

  // One call between its client stub and its copy-out, built fresh for
  // each call: the caller sets `procedure`, `win` and `rets`; StubCall and
  // KernelLeg fill in the rest.
  struct PendingCall {
    int procedure = -1;
    const InlineWindow* win = nullptr;  // Inline path (docs/fast_path.md).
    std::span<const CallRet> rets;
    const ProcedureDescriptor* pd = nullptr;
    AStackRef astack;
    ParFreeList* par_list = nullptr;  // The free list the A-stack came from:
    AStackQueue* queue = nullptr;     // exactly one of the two is set.
    std::vector<std::uint64_t> oob;   // Out-of-band segments of this call.
    CallStats stats;
    Status status;
    int estack = -1;
    bool remote = false;  // The binding carries the remote bit (Section 5.1).
    bool done = false;    // `status` is final and the A-stack released.
    bool routed = false;  // Executed by the ProcTransport, as `proc`.
    ProcTransport::BatchCall proc;
  };

  // The local fast path (Section 3.2): StubCall then a one-call KernelLeg;
  // Call() wraps it for accounting. When `win` is non-null the call
  // marshals through the linkage record's register window instead of the
  // A-stack (docs/fast_path.md).
  Status CallLocal(Processor& cpu, ThreadId thread, ClientBinding& binding,
                   int procedure, std::span<const CallArg> args,
                   std::span<const CallRet> rets, CallStats& stats,
                   const InlineWindow* win = nullptr);

  // The client stub's call half: caller checks, the A-stack pop (with
  // Section 5.2 growth), the marshal (copy A, or the inline window) and
  // the linkage claim — in_use, caller recorded. On failure nothing stays
  // claimed.
  Status StubCall(Processor& cpu, ThreadId thread, ClientBinding& binding,
                  std::span<const CallArg> args, PendingCall& call);

  // The kernel's call and return legs for `calls`, all claimed by StubCall
  // on `thread` against `binding`: one trap pair and one domain-transfer
  // pair for the whole span, with per-call validation, E-stack
  // association, server execution and copy-out. Every call comes back
  // done. A non-zero `deadline` arms the call watchdog around each server
  // execution. Returns false when the thread did not survive the leg.
  bool KernelLeg(Processor& cpu, ThreadId thread, ClientBinding& binding,
                 std::span<PendingCall> calls, SimDuration deadline);

  // Finishes `call` with `status`: releases its out-of-band segments and
  // its claim (dropping it from `pending_of`'s pending set when given).
  // `requeue` hands the A-stack back to its free list and announces
  // CallReturned; an A-stack of a revoked binding never rejoins a free
  // list.
  void Retire(Processor& cpu, Thread* pending_of, PendingCall& call,
              Status status, bool requeue);
  // Pushes the call's A-stack back onto the free list it came from.
  void Requeue(Processor& cpu, const PendingCall& call);
  // The client stub's copy F: results into the caller's destinations.
  Status CopyOut(Processor& cpu, DomainId client, PendingCall& call);

  // Shared tail of Call and CallInline: runs CallLocal, records the trace
  // event and folds the per-call stats into the runtime-wide counters.
  Status CallAccounted(Processor& cpu, ThreadId thread, ClientBinding& binding,
                       int procedure, std::span<const CallArg> args,
                       std::span<const CallRet> rets, CallStats* stats,
                       const InlineWindow* win);

  // The inline path's copy A (`to_server`) or F: one copy between the
  // caller's window and the linkage record's register window; model
  // charges and copy statistics match the general path's per-argument
  // totals.
  void CopyInline(Processor& cpu, const ProcedureDescriptor& pd,
                  LinkageRecord& linkage, const InlineWindow& win,
                  CallStats& cs, bool to_server);

  // The cross-machine branch taken by the first stub instruction when the
  // Binding Object carries the remote bit (Section 5.1).
  Status RemoteCall(Processor& cpu, ThreadId thread, ClientBinding& binding,
                    int procedure, std::span<const CallArg> args,
                    std::span<const CallRet> rets, CallStats& stats);

  // Marshals `args` into the A-stack slots (copy A), spilling oversized
  // variable arguments to out-of-band segments. Segment indices used by
  // this call are appended to `oob_used` (released when the call returns).
  Status MarshalArguments(Processor& cpu, DomainId client,
                          const ProcedureDef& def, AStackRef astack,
                          std::span<const CallArg> args, CallStats* stats,
                          std::vector<std::uint64_t>* oob_used = nullptr);

  // Copies results from the A-stack into the caller's destinations (copy F).
  Status UnmarshalResults(Processor& cpu, DomainId client,
                          const ProcedureDef& def, AStackRef astack,
                          std::span<const CallRet> rets, CallStats* stats);

  Result<std::uint64_t> AllocateOobSegment(std::size_t size, DomainId client,
                                           DomainId server);
  // Returns a per-call segment to the free list for reuse.
  void ReleaseOobSegment(std::uint64_t index);

  Kernel& kernel_;
  RuntimeBackend backend_ = RuntimeBackend::kDeterministicSim;
  bool adopted_ = false;
  ProcTransport* proc_ = nullptr;
  NameServer names_;
  std::vector<std::unique_ptr<Interface>> interfaces_;
  std::vector<std::unique_ptr<Clerk>> clerks_;       // Indexed by DomainId.
  std::vector<std::unique_ptr<ClientBinding>> bindings_;
  // Out-of-band segments are uncommon-case (Section 5.2) and mutate shared
  // vectors; the mutex keeps them safe under the parallel backend and is
  // uncontended in the deterministic one.
  mutable Mutex oob_mutex_;
  std::vector<std::unique_ptr<SharedSegment>> oob_segments_
      LRPC_GUARDED_BY(oob_mutex_);
  std::vector<std::uint64_t> oob_free_list_ LRPC_GUARDED_BY(oob_mutex_);
  RuntimeStats stats_;
  CallTracer* tracer_ = nullptr;
};

}  // namespace lrpc

#endif  // SRC_LRPC_RUNTIME_H_
