#include "src/proc/proc_host.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>

#include "src/lrpc/interface.h"
#include "src/lrpc/server_frame.h"
#include "src/nameserver/name_server.h"
#include "src/proc/futex_doorbell.h"
#include "src/shm/astack.h"

namespace lrpc {

namespace {

// Reads exactly `len` bytes from `fd`, polling with a wall deadline so a
// child that dies before (or while) sending its hello cannot hang the spawn.
bool ReadFullWithDeadline(int fd, void* buffer, std::size_t len,
                          int deadline_ms) {
  auto* out = static_cast<std::uint8_t*>(buffer);
  std::size_t got = 0;
  int waited_ms = 0;
  while (got < len) {
    struct pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int slice_ms = 10;
    const int ready = poll(&pfd, 1, slice_ms);
    if (ready > 0) {
      const ssize_t n = read(fd, out + got, len - got);
      if (n <= 0) {
        return false;  // EOF or error: the peer is gone.
      }
      got += static_cast<std::size_t>(n);
      continue;
    }
    waited_ms += slice_ms;
    if (waited_ms >= deadline_ms) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool ProcHost::ForkPermitted() {
  // Probed once per process: fork a child that exits immediately and reap
  // it. Sandboxes that forbid fork fail here and every proc-backend user
  // skips gracefully.
  static const bool permitted = [] {
    const pid_t pid = fork();
    if (pid < 0) {
      return false;
    }
    if (pid == 0) {
      _exit(0);
    }
    int wait_status = 0;
    return waitpid(pid, &wait_status, 0) == pid;
  }();
  return permitted;
}

ProcHost::ProcHost(LrpcRuntime& runtime, Options options)
    : runtime_(runtime), options_(options) {
  runtime_.AttachProcTransport(this);
}

ProcHost::~ProcHost() {
  // Tear every surviving server down: graceful first (shutdown flag plus a
  // doorbell ring), SIGKILL if a child wedges past a short grace window.
  for (auto& [domain, ep] : endpoints_) {
    if (ep.live && ep.pid > 0) {
      // LRPC_MO(stop-flag)
      ep.channel->shutdown.store(1, std::memory_order_relaxed);
      FutexDoorbell::Wake(&ep.channel->call_seq,
                          &ep.channel->call_sleepers);
      int wait_status = 0;
      bool reaped = false;
      for (int waited_ms = 0; waited_ms < 500; waited_ms += 10) {
        const pid_t r = waitpid(ep.pid, &wait_status, WNOHANG);
        if (r != 0) {
          reaped = true;
          break;
        }
        usleep(10 * 1000);
      }
      if (!reaped) {
        kill(ep.pid, SIGKILL);
        (void)waitpid(ep.pid, &wait_status, 0);
      }
      ep.live = false;
      ep.reaped = true;
      supervisor_.Unwatch(domain);
    }
    if (ep.ctl_fd >= 0) {
      close(ep.ctl_fd);
      ep.ctl_fd = -1;
    }
  }
  endpoints_.clear();
  runtime_.AttachProcTransport(nullptr);
}

bool ProcHost::Serves(DomainId server) const {
  // Dead-pending endpoints still count: the next call must reach Execute
  // (and get kPeerDied) instead of silently running in-process.
  return Find(server) != nullptr;
}

Status ProcHost::SpawnServer(DomainId server, const Interface* iface) {
  if (!ForkPermitted()) {
    return Status(ErrorCode::kUnimplemented,
                  "fork is not permitted in this environment");
  }
  if (iface == nullptr || !iface->sealed()) {
    return Status(ErrorCode::kInvalidArgument,
                  "proc server needs a sealed interface");
  }
  if (Find(server) != nullptr) {
    return Status(ErrorCode::kAlreadyExists, "domain already has a process");
  }
  // The export must be registered before a process is admitted for it: the
  // hello handshake below is checked against this entry.
  Result<ExportEntry> entry = runtime_.names().Lookup(iface->name());
  if (!entry.ok() || entry->server != server) {
    return Status(ErrorCode::kNoSuchInterface,
                  "spawn before export: nameserver has no matching entry");
  }

  Endpoint ep;
  ep.domain = server;
  ep.iface = iface;
  LRPC_RETURN_IF_ERROR(ep.segment.Map(sizeof(ProcChannel)));
  ep.channel = new (ep.segment.data()) ProcChannel();

  // The liveness pipe: the child holds the write end for its whole life, so
  // its death (any death) hangs up the read end in the supervisor's epoll.
  int liveness[2] = {-1, -1};
  if (pipe(liveness) != 0) {
    return Status(ErrorCode::kOutOfMemory, "liveness pipe failed");
  }
  // The control socket carries the binding handshake (ProcHello).
  int ctl[2] = {-1, -1};
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, ctl) != 0) {
    close(liveness[0]);
    close(liveness[1]);
    return Status(ErrorCode::kOutOfMemory, "control socketpair failed");
  }

  // Insert before fork so the child can see its own endpoint (and every
  // sibling's, whose channels it drops rights to).
  auto [it, inserted] = endpoints_.emplace(server, std::move(ep));
  Endpoint& slot = it->second;

  const pid_t pid = fork();
  if (pid == 0) {
    // Server process: keep the liveness write end open forever, drop the
    // parent-side ends, and serve until shutdown or SIGKILL.
    close(liveness[0]);
    close(ctl[0]);
    slot.ctl_fd = ctl[1];
    ChildServe(slot);  // [[noreturn]]
  }
  if (pid < 0) {
    close(liveness[0]);
    close(liveness[1]);
    close(ctl[0]);
    close(ctl[1]);
    endpoints_.erase(it);
    return Status(ErrorCode::kOutOfMemory, "fork failed");
  }

  close(liveness[1]);
  close(ctl[1]);
  slot.pid = static_cast<int>(pid);
  slot.ctl_fd = ctl[0];

  // Binding admission: the child announces what it serves over the UNIX
  // socket; admit only if the claim matches the nameserver's registration.
  ProcHello hello;
  bool admitted = ReadFullWithDeadline(ctl[0], &hello, sizeof(hello),
                                       options_.hello_deadline_ms);
  if (admitted) {
    admitted = hello.magic == kProcHelloMagic &&
               hello.domain == static_cast<std::int32_t>(server) &&
               hello.procedures ==
                   static_cast<std::uint32_t>(iface->procedure_count()) &&
               std::strncmp(hello.name, iface->name().c_str(),
                            kProcHelloNameBytes) == 0;
  }
  if (!admitted) {
    kill(pid, SIGKILL);
    int wait_status = 0;
    (void)waitpid(pid, &wait_status, 0);
    close(liveness[0]);
    close(ctl[0]);
    endpoints_.erase(it);
    return Status(ErrorCode::kBindingRefused,
                  "proc hello handshake failed or mismatched the export");
  }
  close(ctl[0]);
  slot.ctl_fd = -1;

  supervisor_.Watch(server, slot.pid, liveness[0]);
  slot.live = true;
  return Status::Ok();
}

[[noreturn]] void ProcHost::ChildServe(Endpoint& self) {
  // Real per-domain rights: this server may touch only its own channel.
  // Sibling channels stay mapped (fork inherits the world) but go PROT_NONE,
  // the mprotect expression of the paper's pair-wise sharing rule.
  for (auto& [domain, ep] : endpoints_) {
    if (domain != self.domain) {
      (void)ep.segment.Protect(ProcSegment::Access::kNone);
    }
  }

  ProcHello hello;
  hello.domain = static_cast<std::int32_t>(self.domain);
  hello.pid = static_cast<std::int32_t>(getpid());
  hello.procedures = static_cast<std::uint32_t>(self.iface->procedure_count());
  std::snprintf(hello.name, sizeof(hello.name), "%s",
                self.iface->name().c_str());
  (void)!write(self.ctl_fd, &hello, sizeof(hello));
  close(self.ctl_fd);

  ProcChannel* ch = self.channel;
  Processor& cpu = runtime_.machine().processor(0);
  std::uint32_t handled = 0;
  for (;;) {
    // Not a seqlock: call_seq is a monotonic doorbell with one outstanding
    // call per channel, so the header fields it publishes are stable until
    // the server bumps return_seq.
    std::uint32_t seen = ch->call_seq.load(  // NOLINT(lrpc-seqlock-recheck)
        std::memory_order_acquire);
    while (seen == handled) {
      // LRPC_MO(stop-flag)
      if (ch->shutdown.load(std::memory_order_relaxed) != 0) {
        _exit(0);
      }
      seen = FutexDoorbell::WaitWhile(&ch->call_seq, &ch->call_sleepers,
                                      handled, 50);
    }

    // Accept: from here on, a death is mid-call (kCallFailed), not
    // pre-accept (kPeerDied) — the word the client's status split reads.
    ch->accept_seq.fetch_add(1, std::memory_order_acq_rel);
    const std::uint32_t die = ch->die_mode;
    const std::uint32_t batch = ch->batch_count;

    if (batch > 0) {
      // Batched mode (docs/async.md): serve every entry, then ring the
      // return doorbell ONCE — the wake pair the batch amortizes. A
      // mid-body death lands halfway through, so the client's per-entry
      // triage sees finished and unfinished calls in the same corpse.
      for (std::uint32_t i = 0; i < batch && i < kProcBatchMax; ++i) {
        if (die == kProcDieInServerBody && i == batch / 2) {
          kill(getpid(), SIGKILL);
        }
        ProcBatchEntry& entry = ch->batch[i];
        const Status handler_status = ChildRunHandler(
            self, cpu, entry.procedure, entry.inline_window != 0,
            entry.payload, entry.payload_len, sizeof(entry.payload));
        entry.handler_code = static_cast<std::int32_t>(handler_status.code());
        entry.done.store(1, std::memory_order_release);
      }
      handled = seen;
      ch->return_seq.fetch_add(1, std::memory_order_release);
      FutexDoorbell::Wake(&ch->return_seq, &ch->return_sleepers);
      if (die == kProcDieAfterReturn) {
        kill(getpid(), SIGKILL);
      }
      continue;
    }

    if (die == kProcDieInServerBody) {
      // Chaos schedule: die "inside the handler", after accepting.
      kill(getpid(), SIGKILL);
    }

    const Status handler_status = ChildRunHandler(
        self, cpu, ch->procedure, ch->inline_window != 0, ch->payload,
        ch->payload_len, sizeof(ch->payload));

    ch->handler_code = static_cast<std::int32_t>(handler_status.code());
    handled = seen;
    ch->return_seq.fetch_add(1, std::memory_order_release);
    FutexDoorbell::Wake(&ch->return_seq, &ch->return_sleepers);
    if (die == kProcDieAfterReturn) {
      // Chaos schedule: the call itself succeeded; die right after the
      // return doorbell so the *next* call finds a corpse.
      kill(getpid(), SIGKILL);
    }
  }
}

Status ProcHost::ChildRunHandler(Endpoint& self, Processor& cpu,
                                 int procedure, bool inline_window,
                                 std::uint8_t* payload, std::size_t len,
                                 std::size_t capacity) {
  if (procedure < 0 || procedure >= self.iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  const ProcedureDescriptor& pd = self.iface->pd(procedure);
  const ProcedureDef& def = *pd.def;
  const auto client = static_cast<DomainId>(self.channel->client_domain);
  const auto caller = static_cast<ThreadId>(self.channel->caller_thread);
  // A scratch A-stack shaped like the real one; the register-window mode
  // serves arguments straight from the payload instead.
  const std::size_t scratch_size =
      pd.astack_size > 0 ? pd.astack_size : kLinkageRegsSize;
  // `len` and the window mode are read from shared memory, so a hostile
  // client may aim any window at any procedure: the window must fit the
  // payload it was read from and the region it is served from.
  if (len > capacity ||
      len > (inline_window ? kLinkageRegsSize : scratch_size) ||
      (inline_window && !pd.inline_eligible)) {
    return Status(ErrorCode::kInvalidArgument,
                  "argument window does not fit the procedure");
  }
  AStackRegion scratch(client, self.domain, scratch_size, 1, false);
  const AStackRef ref{&scratch, 0};
  ServerFrame frame(nullptr, cpu, def, ref, self.domain, client, caller,
                    nullptr);
  if (inline_window) {
    frame.AttachRegisterWindow(payload);
  } else if (len > 0) {
    std::memcpy(scratch.segment().DataUnchecked(), payload, len);
  }
  const Status handler_status = frame.Dispatch();
  if (!inline_window && len > 0) {
    std::memcpy(payload, scratch.segment().DataUnchecked(), len);
  }
  return handler_status;
}

Status ProcHost::Execute(DomainId server, DomainId client, int procedure,
                         bool inline_window, std::uint8_t* window,
                         std::size_t window_len, Status* handler_status,
                         KillPhase kill_phase) {
  Endpoint* ep = Find(server);
  if (ep == nullptr) {
    return Status(ErrorCode::kNoSuchDomain, "no process endpoint");
  }
  if (window_len > kProcPayloadBytes) {
    return Status(ErrorCode::kMessageTooLarge,
                  "argument window exceeds the channel payload");
  }
  if (ep->dead_pending || !ep->live) {
    // A corpse detected earlier (post-return self-kill, or an out-of-call
    // death not yet collected): the call never reaches the server, so this
    // is a pre-accept death — retryable.
    MarkDead(*ep);
    return Status(ErrorCode::kPeerDied, "server process already dead");
  }
  if (kill_phase == KillPhase::kBeforeAccept) {
    // Chaos schedule: kill before ringing the doorbell, so the handler
    // provably never runs.
    kill(ep->pid, SIGKILL);
    MarkDead(*ep);
    return Status(ErrorCode::kPeerDied,
                  "server process died before accepting the call");
  }

  ProcChannel* ch = ep->channel;
  ch->die_mode = kill_phase == KillPhase::kInServerBody ? kProcDieInServerBody
                 : kill_phase == KillPhase::kAfterReturn ? kProcDieAfterReturn
                                                         : kProcDieNone;
  ch->procedure = procedure;
  ch->client_domain = static_cast<std::int32_t>(client);
  ch->caller_thread = static_cast<std::int32_t>(kNoThread);
  ch->inline_window = inline_window ? 1u : 0u;
  ch->payload_len = static_cast<std::uint32_t>(window_len);
  ch->batch_count = 0;  // Single-call mode.
  if (window_len > 0) {
    std::memcpy(ch->payload, window, window_len);
  }
  const std::uint32_t accepted_before =
      ch->accept_seq.load(std::memory_order_acquire);
  const std::uint32_t returned_before =
      ch->return_seq.load(std::memory_order_acquire);
  ch->call_seq.fetch_add(1, std::memory_order_release);
  FutexDoorbell::Wake(&ch->call_seq, &ch->call_sleepers);
  ++transfers_;

  int waited_ms = 0;
  for (;;) {
    const std::uint32_t returned =
        FutexDoorbell::WaitWhile(&ch->return_seq, &ch->return_sleepers,
                                 returned_before, options_.wait_slice_ms);
    if (returned != returned_before) {
      // The server rang the return doorbell; its release store published
      // the result payload under our acquire load.
      if (window_len > 0) {
        std::memcpy(window, ch->payload, window_len);
      }
      *handler_status = DecodeHandlerCode(ch->handler_code);
      if (kill_phase == KillPhase::kAfterReturn) {
        // The deliberate post-return death is synchronous (the child
        // SIGKILLed itself right after ringing); reap it now so the next
        // call observes kPeerDied deterministically.
        MarkDead(*ep);
      }
      return Status::Ok();
    }

    // Liveness check between futex slices — this is what turns "peer died
    // mid-call" into a prompt status instead of a hang.
    int wait_status = 0;
    const pid_t r = waitpid(ep->pid, &wait_status, WNOHANG);
    if (r != 0) {
      ep->reaped = r == ep->pid;
      MarkDead(*ep);
      const std::uint32_t accepted =
          ch->accept_seq.load(std::memory_order_acquire);
      if (accepted == accepted_before) {
        return Status(ErrorCode::kPeerDied,
                      "server process died before accepting the call");
      }
      return Status(ErrorCode::kCallFailed, "server process died mid-call");
    }

    waited_ms += options_.wait_slice_ms;
    if (waited_ms >= options_.call_deadline_ms) {
      // The backend's own watchdog: a wedged peer is indistinguishable from
      // a hung call, so kill and collect it rather than hang the client.
      kill(ep->pid, SIGKILL);
      MarkDead(*ep);
      const std::uint32_t accepted =
          ch->accept_seq.load(std::memory_order_acquire);
      if (accepted == accepted_before) {
        return Status(ErrorCode::kPeerDied,
                      "wedged server killed before accepting the call");
      }
      return Status(ErrorCode::kCallFailed, "wedged server killed mid-call");
    }
  }
}

Status ProcHost::ExecuteBatch(DomainId server, DomainId client,
                              std::span<BatchCall> calls,
                              KillPhase kill_phase) {
  if (calls.empty()) {
    return Status::Ok();
  }
  // Batches the channel's batch area cannot carry take the compatibility
  // loop — exact semantics first, doorbell amortization second.
  bool fits = calls.size() <= kProcBatchMax;
  for (const BatchCall& call : calls) {
    fits = fits && call.window_len <= kProcBatchEntryBytes;
  }
  if (!fits) {
    return ProcTransport::ExecuteBatch(server, client, calls, kill_phase);
  }

  Endpoint* ep = Find(server);
  if (ep == nullptr) {
    return Status(ErrorCode::kNoSuchDomain, "no process endpoint");
  }
  auto fail_all = [&calls](ErrorCode code, const char* detail) {
    for (BatchCall& call : calls) {
      call.leg = Status(code, detail);
    }
  };
  if (ep->dead_pending || !ep->live) {
    MarkDead(*ep);
    fail_all(ErrorCode::kPeerDied, "server process already dead");
    return Status::Ok();
  }
  if (kill_phase == KillPhase::kBeforeAccept) {
    kill(ep->pid, SIGKILL);
    MarkDead(*ep);
    fail_all(ErrorCode::kPeerDied,
             "server process died before accepting the call");
    return Status::Ok();
  }

  ProcChannel* ch = ep->channel;
  ch->die_mode = kill_phase == KillPhase::kInServerBody ? kProcDieInServerBody
                 : kill_phase == KillPhase::kAfterReturn ? kProcDieAfterReturn
                                                         : kProcDieNone;
  ch->client_domain = static_cast<std::int32_t>(client);
  ch->caller_thread = static_cast<std::int32_t>(kNoThread);
  ch->batch_count = static_cast<std::uint32_t>(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    ProcBatchEntry& entry = ch->batch[i];
    entry.procedure = calls[i].procedure;
    entry.inline_window = calls[i].inline_window ? 1u : 0u;
    entry.payload_len = static_cast<std::uint32_t>(calls[i].window_len);
    entry.handler_code = 0;
    // Ordered by the call_seq release store below, like the plain header
    // fields.  LRPC_MO(pre-publish-reset)
    entry.done.store(0, std::memory_order_relaxed);
    if (calls[i].window_len > 0) {
      std::memcpy(entry.payload, calls[i].window, calls[i].window_len);
    }
  }
  const std::uint32_t accepted_before =
      ch->accept_seq.load(std::memory_order_acquire);
  const std::uint32_t returned_before =
      ch->return_seq.load(std::memory_order_acquire);
  // ONE doorbell ring for the whole batch — the amortization this protocol
  // exists for; the single return ring below is its pair.
  ch->call_seq.fetch_add(1, std::memory_order_release);
  FutexDoorbell::Wake(&ch->call_seq, &ch->call_sleepers);
  ++transfers_;

  // Per-entry triage after a peer death: never accepted => every call is
  // retryable; accepted => finished entries (done word published) keep
  // their real results, the rest may have run their handler => kCallFailed.
  auto triage_death = [&](const char* mid_detail) {
    const std::uint32_t accepted =
        ch->accept_seq.load(std::memory_order_acquire);
    if (accepted == accepted_before) {
      fail_all(ErrorCode::kPeerDied,
               "server process died before accepting the call");
      return;
    }
    for (std::size_t i = 0; i < calls.size(); ++i) {
      ProcBatchEntry& entry = ch->batch[i];
      if (entry.done.load(std::memory_order_acquire) != 0) {
        if (calls[i].window_len > 0) {
          std::memcpy(calls[i].window, entry.payload, calls[i].window_len);
        }
        calls[i].leg = Status::Ok();
        calls[i].handler_status = DecodeHandlerCode(entry.handler_code);
      } else {
        calls[i].leg = Status(ErrorCode::kCallFailed, mid_detail);
      }
    }
  };

  int waited_ms = 0;
  for (;;) {
    const std::uint32_t returned =
        FutexDoorbell::WaitWhile(&ch->return_seq, &ch->return_sleepers,
                                 returned_before, options_.wait_slice_ms);
    if (returned != returned_before) {
      // The server rang the return doorbell once for the whole batch; its
      // release store published every entry's result bytes.
      for (std::size_t i = 0; i < calls.size(); ++i) {
        ProcBatchEntry& entry = ch->batch[i];
        if (calls[i].window_len > 0) {
          std::memcpy(calls[i].window, entry.payload, calls[i].window_len);
        }
        calls[i].leg = Status::Ok();
        calls[i].handler_status = DecodeHandlerCode(entry.handler_code);
      }
      if (kill_phase == KillPhase::kAfterReturn) {
        // Synchronous post-return death, reaped now (see Execute).
        MarkDead(*ep);
      }
      return Status::Ok();
    }

    int wait_status = 0;
    const pid_t r = waitpid(ep->pid, &wait_status, WNOHANG);
    if (r != 0) {
      ep->reaped = r == ep->pid;
      MarkDead(*ep);
      triage_death("server process died mid-call");
      return Status::Ok();
    }

    waited_ms += options_.wait_slice_ms;
    if (waited_ms >= options_.call_deadline_ms) {
      kill(ep->pid, SIGKILL);
      MarkDead(*ep);
      triage_death("wedged server killed mid-call");
      return Status::Ok();
    }
  }
}

void ProcHost::MarkDead(Endpoint& ep) {
  ep.live = false;
  if (!ep.reaped && ep.pid > 0) {
    // Blocking reap is safe here: every caller has either sent SIGKILL or
    // observed the death already, so the wait returns promptly.
    int wait_status = 0;
    (void)waitpid(ep.pid, &wait_status, 0);
    ep.reaped = true;
  }
  ep.dead_pending = true;
  if (ep.ctl_fd >= 0) {
    close(ep.ctl_fd);
    ep.ctl_fd = -1;
  }
  supervisor_.Unwatch(ep.domain);
}

void ProcHost::OnDomainTerminated(DomainId domain) {
  auto it = endpoints_.find(domain);
  if (it == endpoints_.end()) {
    return;  // Not a proc-backed domain, or already reclaimed.
  }
  Endpoint& ep = it->second;
  if (ep.live && ep.pid > 0) {
    kill(ep.pid, SIGKILL);
  }
  MarkDead(ep);
  // Reclaim: the endpoint's destructor unmaps the shared channel segment;
  // the liveness fd was closed by Unwatch, the control fd by MarkDead.
  endpoints_.erase(it);
}

std::vector<DomainId> ProcHost::PollDeaths() {
  std::vector<DomainId> dead;
  for (const ProcSupervisor::DeadPeer& peer : supervisor_.Poll()) {
    Endpoint* ep = Find(peer.domain);
    if (ep == nullptr || ep->dead_pending) {
      continue;
    }
    ep->reaped = true;  // The supervisor's sweep already reaped it.
    MarkDead(*ep);
    dead.push_back(peer.domain);
  }
  return dead;
}

int ProcHost::CollectDead() {
  // Snapshot first: TerminateDomain re-enters OnDomainTerminated, which
  // erases from endpoints_.
  std::vector<DomainId> pending;
  for (const auto& [domain, ep] : endpoints_) {
    if (ep.dead_pending) {
      pending.push_back(domain);
    }
  }
  int collected = 0;
  for (DomainId domain : pending) {
    (void)runtime_.TerminateDomain(domain);
    ++collected;
  }
  return collected;
}

Status ProcHost::KillPeer(DomainId server) {
  Endpoint* ep = Find(server);
  if (ep == nullptr) {
    return Status(ErrorCode::kNoSuchDomain, "no process endpoint");
  }
  if (!ep->live) {
    return Status(ErrorCode::kDomainTerminated, "peer already dead");
  }
  kill(ep->pid, SIGKILL);
  // Deliberately no reap here: the supervisor's SIGCHLD/EPOLLHUP/waitpid
  // machinery is what the out-of-call death tests exercise.
  return Status::Ok();
}

Status ProcHost::Shutdown(DomainId server) {
  Endpoint* ep = Find(server);
  if (ep == nullptr) {
    return Status(ErrorCode::kNoSuchDomain, "no process endpoint");
  }
  if (!ep->live) {
    return Status(ErrorCode::kDomainTerminated, "peer already dead");
  }
  // LRPC_MO(stop-flag)
  ep->channel->shutdown.store(1, std::memory_order_relaxed);
  FutexDoorbell::Wake(&ep->channel->call_seq,
                      &ep->channel->call_sleepers);
  int wait_status = 0;
  (void)waitpid(ep->pid, &wait_status, 0);
  ep->reaped = true;
  MarkDead(*ep);
  return Status::Ok();
}

int ProcHost::peer_pid(DomainId server) const {
  const Endpoint* ep = Find(server);
  return ep != nullptr ? ep->pid : -1;
}

std::size_t ProcHost::live_endpoints() const {
  std::size_t n = 0;
  for (const auto& [domain, ep] : endpoints_) {
    if (ep.live) {
      ++n;
    }
  }
  return n;
}

std::size_t ProcHost::mapped_segments() const {
  std::size_t n = 0;
  for (const auto& [domain, ep] : endpoints_) {
    if (ep.segment.mapped()) {
      ++n;
    }
  }
  return n;
}

ProcHost::Endpoint* ProcHost::Find(DomainId domain) {
  auto it = endpoints_.find(domain);
  return it != endpoints_.end() ? &it->second : nullptr;
}

const ProcHost::Endpoint* ProcHost::Find(DomainId domain) const {
  auto it = endpoints_.find(domain);
  return it != endpoints_.end() ? &it->second : nullptr;
}

}  // namespace lrpc
