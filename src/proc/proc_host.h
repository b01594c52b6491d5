// ProcHost: the multi-process backend behind RuntimeBackend::kMultiProcess
// (docs/multiprocess.md).
//
// Each server domain becomes a real forked process. The A-stack argument
// window crosses a MAP_SHARED channel segment behind a futex doorbell (the
// domain transfer); binding admission runs over a UNIX-domain socket
// handshake checked against the nameserver; and a ProcSupervisor watches
// every child so peer death — deliberate (chaos SIGKILL schedules), induced
// (wedged peers past the call deadline) or spontaneous — is detected,
// reaped, and fed to the §5.3 termination collector, never hung on.
//
// Lifetime: the host attaches itself to the runtime on construction and
// detaches on destruction, so it must not outlive the runtime. Everything
// is single-threaded on the client side (the chaos/property drivers are),
// matching the one-outstanding-call-per-channel protocol.

#ifndef SRC_PROC_PROC_HOST_H_
#define SRC_PROC_PROC_HOST_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/lrpc/proc_transport.h"
#include "src/lrpc/runtime.h"
#include "src/proc/proc_channel.h"
#include "src/proc/proc_segment.h"
#include "src/proc/proc_supervisor.h"

namespace lrpc {

class ProcHost : public ProcTransport {
 public:
  struct Options {
    // Futex slice between liveness checks while a call is outstanding.
    int wait_slice_ms = 2;
    // Wall deadline for one domain transfer: a peer that has not returned
    // by then is treated as wedged, SIGKILLed and collected — the backend's
    // own watchdog, guaranteeing no client ever hangs on a corpse.
    int call_deadline_ms = 5000;
    // Wall deadline for the spawn handshake over the control socket.
    int hello_deadline_ms = 5000;
  };

  explicit ProcHost(LrpcRuntime& runtime) : ProcHost(runtime, Options()) {}
  ProcHost(LrpcRuntime& runtime, Options options);
  ~ProcHost() override;

  ProcHost(const ProcHost&) = delete;
  ProcHost& operator=(const ProcHost&) = delete;

  // True when this environment lets us fork and wait (probed once; some
  // sandboxes forbid it, and every caller is expected to skip gracefully).
  static bool ForkPermitted();

  // --- ProcTransport. ---
  bool Serves(DomainId server) const override;
  std::size_t payload_capacity() const override { return kProcPayloadBytes; }
  Status SpawnServer(DomainId server, const Interface* iface) override;
  Status Execute(DomainId server, DomainId client, int procedure,
                 bool inline_window, std::uint8_t* window,
                 std::size_t window_len, Status* handler_status,
                 KillPhase kill) override;
  // The single-doorbell batch protocol (docs/async.md): every call crosses
  // the channel's batch area behind ONE call doorbell and ONE return
  // doorbell; a peer death is triaged per entry via the `done` words.
  // Batches the area cannot carry (oversized windows, overlong batches)
  // fall back to the compatibility loop.
  Status ExecuteBatch(DomainId server, DomainId client,
                      std::span<BatchCall> calls,
                      KillPhase kill) override;
  void OnDomainTerminated(DomainId domain) override;

  // --- Robustness surface (supervisor-driven, out-of-call). ---
  // Sweeps the supervisor for peers that died outside any call (the chaos
  // raw-SIGKILL case); marks them dead-pending and returns their domains.
  std::vector<DomainId> PollDeaths();
  // Runs the termination collector on every dead-pending domain (revoking
  // bindings, unwinding captured threads, reclaiming segments); returns the
  // number collected.
  int CollectDead();

  // --- Test and bench surface. ---
  // Raw SIGKILL of a server's process, not synchronized with any call.
  Status KillPeer(DomainId server);
  // Graceful shutdown: sets the channel's shutdown flag, waits for exit.
  Status Shutdown(DomainId server);
  int peer_pid(DomainId server) const;
  // Endpoints whose process is believed alive.
  std::size_t live_endpoints() const;
  // Channel segments still mapped — the reclamation audit: after every dead
  // domain is collected this equals live_endpoints().
  std::size_t mapped_segments() const;
  std::uint64_t transfers() const { return transfers_; }
  ProcSupervisor& supervisor() { return supervisor_; }

 private:
  struct Endpoint {
    DomainId domain = kNoDomain;
    const Interface* iface = nullptr;
    int pid = -1;
    ProcSegment segment;            // Holds the channel.
    ProcChannel* channel = nullptr;
    int ctl_fd = -1;                // Parent end of the control socket.
    bool live = false;              // Process believed running.
    bool dead_pending = false;      // Corpse detected, collector not yet run.
    bool reaped = false;
  };

  // Serve loop of the forked child; never returns.
  [[noreturn]] void ChildServe(Endpoint& self);
  // One handler execution in the child, against `payload` (`capacity`
  // bytes of channel) as the argument window; shared by the single-call and
  // batched serve paths. A window that does not fit is kInvalidArgument.
  Status ChildRunHandler(Endpoint& self, Processor& cpu, int procedure,
                         bool inline_window, std::uint8_t* payload,
                         std::size_t len, std::size_t capacity);

  // Reaps (if needed) and marks an endpoint's corpse; idempotent.
  void MarkDead(Endpoint& ep);

  Endpoint* Find(DomainId domain);
  const Endpoint* Find(DomainId domain) const;

  LrpcRuntime& runtime_;
  Options options_;
  ProcSupervisor supervisor_;
  std::map<DomainId, Endpoint> endpoints_;
  std::uint64_t transfers_ = 0;
};

}  // namespace lrpc

#endif  // SRC_PROC_PROC_HOST_H_
