#include "src/rpc/msg_rpc.h"

#include <cstring>

#include "src/common/check.h"
#include "src/lrpc/server_frame.h"
#include "src/lrpc/wire.h"

namespace lrpc {

std::string_view MsgRpcModeName(MsgRpcMode mode) {
  switch (mode) {
    case MsgRpcMode::kTraditional:
      return "Message Passing";
    case MsgRpcMode::kSrcFirefly:
      return "SRC RPC";
    case MsgRpcMode::kRestrictedDash:
      return "Restricted Message Passing";
  }
  return "unknown";
}

MsgServer::MsgServer(Kernel& kernel, DomainId domain, const Interface* iface,
                     int worker_threads, int port_depth)
    : domain_(domain),
      iface_(iface),
      port_(std::make_unique<Port>(domain, iface->name(), port_depth)),
      kernel_(kernel) {
  for (int i = 0; i < worker_threads; ++i) {
    workers_.push_back(kernel.CreateThread(domain));
    busy_.push_back(false);
  }
}

Thread* MsgServer::ClaimWorker(Kernel& kernel) {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!busy_[i]) {
      busy_[i] = true;
      return &kernel.thread(workers_[i]);
    }
  }
  return nullptr;
}

void MsgServer::ReleaseWorker(Thread* worker) {
  if (worker == nullptr) {
    return;
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i] == worker->id()) {
      busy_[i] = false;
      return;
    }
  }
}

MsgRpcSystem::MsgRpcSystem(Kernel& kernel, MsgRpcMode mode)
    : kernel_(kernel),
      mode_(mode),
      global_lock_("src_rpc.global"),
      pool_(/*capacity=*/64) {}

MsgServer* MsgRpcSystem::RegisterServer(DomainId domain, const Interface* iface,
                                        int worker_threads, int port_depth) {
  LRPC_CHECK(iface->sealed());
  servers_.push_back(std::make_unique<MsgServer>(kernel_, domain, iface,
                                                 worker_threads, port_depth));
  return servers_.back().get();
}

MsgServer* MsgRpcSystem::FindServerByName(std::string_view name) const {
  for (const auto& server : servers_) {
    if (server->interface_spec()->name() == name &&
        kernel_.domain(server->domain()).alive()) {
      return server.get();
    }
  }
  return nullptr;
}

Status MsgRpcSystem::ExportFallback(DomainId domain, const Interface* iface) {
  if (!kernel_.domain(domain).alive()) {
    return Status(ErrorCode::kDomainTerminated, "fallback host domain is dead");
  }
  RegisterServer(domain, iface);
  return Status::Ok();
}

bool MsgRpcSystem::Serves(std::string_view name) const {
  return FindServerByName(name) != nullptr;
}

Status MsgRpcSystem::CallFallback(Processor& cpu, ThreadId thread,
                                  DomainId client, std::string_view name,
                                  int procedure, std::span<const CallArg> args,
                                  std::span<const CallRet> rets) {
  MsgServer* server = FindServerByName(name);
  if (server == nullptr) {
    return Status(ErrorCode::kNoSuchInterface, "no live fallback server");
  }
  MsgBinding binding{client, server};
  return Call(cpu, thread, binding, procedure, args, rets);
}

void MsgRpcSystem::ChargeCopy(Processor& cpu, std::size_t bytes) {
  const MachineModel& model = kernel_.model();
  cpu.Charge(CostCategory::kArgumentCopy,
             model.msg_copy_setup +
                 Micros(model.msg_copy_per_byte_us * static_cast<double>(bytes)));
}

namespace {

// Writes `args` into the slot layout at the head of `payload` (the message
// image mirrors the procedure's stack layout so the server-side copy is a
// straight block move).
Status MarshalIntoPayload(const ProcedureDef& def,
                          std::span<const CallArg> args,
                          std::vector<std::uint8_t>* payload) {
  std::size_t arg_index = 0;
  for (std::size_t i = 0; i < def.params.size(); ++i) {
    const ParamDesc& p = def.params[i];
    if (!p.is_in()) {
      continue;
    }
    if (arg_index >= args.size()) {
      return Status(ErrorCode::kInvalidArgument, "too few arguments");
    }
    const CallArg& arg = args[arg_index++];
    const std::size_t slot = ParamOffset(def, i);
    if (p.size > 0) {
      if (arg.len != p.size) {
        return Status(ErrorCode::kInvalidArgument, "fixed argument size mismatch");
      }
      std::memcpy(payload->data() + slot, arg.data, arg.len);
    } else {
      if (arg.len > p.ASlotSize() - sizeof(std::uint32_t)) {
        return Status(ErrorCode::kMessageTooLarge,
                      "variable argument exceeds message slot");
      }
      const auto prefix = static_cast<std::uint32_t>(arg.len);
      std::memcpy(payload->data() + slot, &prefix, sizeof(prefix));
      std::memcpy(payload->data() + slot + sizeof(prefix), arg.data, arg.len);
    }
  }
  if (arg_index != args.size()) {
    return Status(ErrorCode::kInvalidArgument, "too many arguments");
  }
  return Status::Ok();
}

// Copies results out of the reply image into the caller's destinations.
Status UnmarshalFromPayload(const ProcedureDef& def,
                            const std::vector<std::uint8_t>& payload,
                            std::span<const CallRet> rets) {
  std::size_t ret_index = 0;
  for (std::size_t i = 0; i < def.params.size(); ++i) {
    const ParamDesc& p = def.params[i];
    if (!p.is_out()) {
      continue;
    }
    if (ret_index >= rets.size()) {
      return Status(ErrorCode::kInvalidArgument, "too few result destinations");
    }
    const CallRet& ret = rets[ret_index++];
    const std::size_t slot = ParamOffset(def, i);
    if (p.size > 0) {
      if (ret.len < p.size) {
        return Status(ErrorCode::kInvalidArgument, "result buffer too small");
      }
      std::memcpy(ret.data, payload.data() + slot, p.size);
    } else {
      std::uint32_t prefix = 0;
      std::memcpy(&prefix, payload.data() + slot, sizeof(prefix));
      if (prefix == kOobMarker || prefix > ret.len) {
        return Status(ErrorCode::kInvalidArgument, "result larger than buffer");
      }
      std::memcpy(ret.data, payload.data() + slot + sizeof(prefix), prefix);
    }
  }
  if (ret_index != rets.size()) {
    return Status(ErrorCode::kInvalidArgument, "too many result destinations");
  }
  return Status::Ok();
}

}  // namespace

Status MsgRpcSystem::Call(Processor& cpu, ThreadId thread_id,
                          MsgBinding& binding, int procedure,
                          std::span<const CallArg> args,
                          std::span<const CallRet> rets, CallStats* stats) {
  const MachineModel& model = kernel_.model();
  Thread* t = kernel_.FindThread(thread_id);
  if (t == nullptr || t->state() == ThreadState::kDead) {
    return Status(ErrorCode::kNoSuchThread);
  }
  MsgServer* server = binding.server;
  if (server == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "unbound");
  }
  Domain& server_domain = kernel_.domain(server->domain());
  Domain& client_domain = kernel_.domain(binding.client);
  if (!server_domain.alive()) {
    return Status(ErrorCode::kDomainTerminated);
  }
  const Interface* iface = server->interface_spec();
  if (procedure < 0 || procedure >= iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  const ProcedureDescriptor& pd = iface->pd(procedure);
  const ProcedureDef& def = *pd.def;

  CallStats local_stats;
  CallStats& cs = stats != nullptr ? *stats : local_stats;

  const bool src = mode_ == MsgRpcMode::kSrcFirefly;
  const bool traditional = mode_ == MsgRpcMode::kTraditional;
  const bool dash = mode_ == MsgRpcMode::kRestrictedDash;

  std::size_t in_bytes = 0;
  for (const CallArg& a : args) {
    in_bytes += a.len;
  }

  // --- Client stub, call half: full marshaling through general code. ---
  cpu.Charge(CostCategory::kProcedureCall, model.procedure_call);
  cpu.Charge(CostCategory::kMsgStub, model.msg_stub / 2);
  cpu.Charge(CostCategory::kMsgRuntime, model.msg_runtime / 2);
  for (std::size_t i = 0; i < args.size() + rets.size(); ++i) {
    cpu.Charge(CostCategory::kMsgStub, model.msg_per_arg);
  }

  // Message buffer acquisition. In SRC mode buffers are globally shared and
  // acquired under the single system lock without kernel involvement.
  if (src) {
    global_lock_.Acquire(cpu);
  }
  cpu.Charge(CostCategory::kMsgBufferMgmt, model.msg_buffer_mgmt / 2);
  Result<std::unique_ptr<Message>> message_result = pool_.Acquire();
  if (src) {
    global_lock_.Release(cpu);
  }
  if (!message_result.ok()) {
    return message_result.status();
  }
  std::unique_ptr<Message> message = std::move(*message_result);
  message->header = {binding.client, server->domain(), thread_id,
                     static_cast<std::uint32_t>(procedure), false};
  message->payload.assign(pd.astack_size, 0);

  // Copy A: client stub stack -> message.
  Status marshal = MarshalIntoPayload(def, args, &message->payload);
  if (!marshal.ok()) {
    pool_.Release(std::move(message));
    return marshal;
  }
  for (const CallArg& a : args) {
    ChargeCopy(cpu, a.len);
    cs.copies.Count(CopyOp::kA, a.len);
  }

  // Trap into the kernel.
  kernel_.ChargeTrap(cpu);
  if (traditional) {
    // The kernel validates the message sender on call (Section 2.3).
    cpu.Charge(CostCategory::kMsgValidation, model.msg_validation);
  }

  // Cross-domain message transfer: mode-dependent copies.
  for (const CallArg& a : args) {
    if (traditional) {
      ChargeCopy(cpu, a.len);  // B: sender -> kernel.
      cs.copies.Count(CopyOp::kB, a.len);
      ChargeCopy(cpu, a.len);  // C: kernel -> receiver.
      cs.copies.Count(CopyOp::kC, a.len);
    } else if (dash) {
      ChargeCopy(cpu, a.len);  // D: sender/kernel -> receiver, fused.
      cs.copies.Count(CopyOp::kD, a.len);
    }
    // SRC: the buffer is mapped everywhere; no kernel copies.
  }

  // Enqueue on the server's port and wake a concrete server thread. SRC RPC
  // holds its global lock across this whole transfer section.
  if (src) {
    global_lock_.Acquire(cpu);
  }
  Status enqueue = server->port().Enqueue(cpu, std::move(message));
  if (!enqueue.ok()) {
    if (src) {
      global_lock_.Release(cpu);
    }
    return enqueue;
  }
  cpu.Charge(CostCategory::kMsgQueueOps, model.msg_queue_ops / 2);
  cpu.Charge(CostCategory::kMsgScheduling, model.msg_scheduling / 2);
  Thread* worker = server->ClaimWorker(kernel_);
  if (worker == nullptr) {
    // Caller serialization: no receiver thread remained (Section 2.3,
    // "Dispatch"). kQueueFull is classified transient by Status::Retryable()
    // — the request never reached a handler, so callers may safely retry.
    if (src) {
      global_lock_.Release(cpu);
    }
    (void)server->port().Dequeue(cpu);
    return Status(ErrorCode::kQueueFull, "no idle server thread");
  }
  if (src) {
    // Handoff scheduling: the two concrete threads are identifiable, so the
    // general scheduling path is bypassed (Section 2.3).
    kernel_.scheduler().Handoff(cpu, *t, *worker);
  } else {
    kernel_.scheduler().Block(cpu, *t);
    kernel_.scheduler().Wakeup(cpu, *worker);
    Thread* picked = kernel_.scheduler().PickNext(cpu);
    LRPC_CHECK(picked == worker);
  }
  cpu.Charge(CostCategory::kMsgDispatch, model.msg_dispatch / 2);
  if (src) {
    global_lock_.Release(cpu);
  }

  // Context switch into the server domain.
  cpu.Charge(CostCategory::kContextSwitch, model.context_switch);
  cpu.LoadContext(server_domain.vm_context());

  // --- Server side. ---
  std::unique_ptr<Message> request = server->port().Dequeue(cpu);
  LRPC_CHECK(request != nullptr);

  // Copy E: message -> the server's stack/private memory. The scratch
  // region stands in for that memory (real bytes the handler reads).
  AStackRegion scratch(binding.client, server->domain(), pd.astack_size, 1,
                       /*secondary=*/false);
  std::memcpy(scratch.segment().DataUnchecked(), request->payload.data(),
              pd.astack_size);
  for (const CallArg& a : args) {
    ChargeCopy(cpu, a.len);
    cs.copies.Count(CopyOp::kE, a.len);
  }
  cpu.Charge(CostCategory::kMsgStub, model.msg_stub / 2);

  ServerFrame frame(nullptr, cpu, def, AStackRef{&scratch, 0},
                    server->domain(), binding.client, worker->id(),
                    &cs.copies);
  const Status server_status = frame.Dispatch(/*already_private=*/true);
  cs.server_status = server_status;

  // --- Reply leg. ---
  std::size_t out_bytes = 0;
  for (const CallRet& r : rets) {
    out_bytes += r.len;
  }

  // The server places results into the reply message. In SRC mode buffers
  // are a managed shared resource, so one extra copy from the server's
  // results into the reply buffer is needed (the paper's Table 3 footnote).
  std::vector<std::uint8_t> reply(scratch.segment().DataUnchecked(),
                                  scratch.segment().DataUnchecked() +
                                      pd.astack_size);
  if (src && server_status.ok()) {
    for (const CallRet& r : rets) {
      ChargeCopy(cpu, r.len);
      cs.copies.Count(CopyOp::kA, r.len);  // A': results -> reply message.
    }
  }
  if (out_bytes > static_cast<std::size_t>(model.msg_register_result_bytes)) {
    // Results too wide for registers: a reply buffer must be managed.
    cpu.Charge(CostCategory::kMsgBufferMgmt, model.msg_reply_buffer_penalty);
  }

  kernel_.ChargeTrap(cpu);
  if (traditional) {
    cpu.Charge(CostCategory::kMsgValidation, model.msg_validation);
  }
  for (const CallRet& r : rets) {
    if (traditional) {
      ChargeCopy(cpu, r.len);  // B: server -> kernel.
      cs.copies.Count(CopyOp::kB, r.len);
      ChargeCopy(cpu, r.len);  // C: kernel -> client.
      cs.copies.Count(CopyOp::kC, r.len);
    } else if (dash) {
      ChargeCopy(cpu, r.len);  // B: server -> mapped region.
      cs.copies.Count(CopyOp::kB, r.len);
    }
  }

  // Reply transfer critical section.
  if (src) {
    global_lock_.Acquire(cpu);
  }
  cpu.Charge(CostCategory::kMsgBufferMgmt, model.msg_buffer_mgmt / 2);
  cpu.Charge(CostCategory::kMsgQueueOps, model.msg_queue_ops / 2);
  cpu.Charge(CostCategory::kMsgScheduling, model.msg_scheduling / 2);
  if (src) {
    kernel_.scheduler().Handoff(cpu, *worker, *t);
  } else {
    kernel_.scheduler().Block(cpu, *worker);
    kernel_.scheduler().Wakeup(cpu, *t);
    Thread* picked = kernel_.scheduler().PickNext(cpu);
    LRPC_CHECK(picked == t);
  }
  cpu.Charge(CostCategory::kMsgDispatch, model.msg_dispatch / 2);
  if (src) {
    global_lock_.Release(cpu);
  }
  server->ReleaseWorker(worker);
  pool_.Release(std::move(request));

  // Context switch back to the client.
  cpu.Charge(CostCategory::kContextSwitch, model.context_switch);
  cpu.LoadContext(client_domain.vm_context());
  cpu.Charge(CostCategory::kMsgRuntime, model.msg_runtime / 2);

  if (!server_status.ok()) {
    return server_status;
  }

  // Copy F: reply message -> the caller's result destinations.
  Status unmarshal = UnmarshalFromPayload(def, reply, rets);
  for (const CallRet& r : rets) {
    ChargeCopy(cpu, r.len);
    cs.copies.Count(CopyOp::kF, r.len);
  }
  return unmarshal;
}

std::vector<CallSegment> MsgRpcSystem::SrcNullCallSegments(
    const MachineModel& model) {
  // One entry per phase of Call() in SRC mode with no arguments; locked
  // segments are the global-lock critical sections.
  const SimDuration handoff = model.thread_block + model.thread_wakeup;
  return {
      // Procedure call + client stub half + runtime half.
      {model.procedure_call + model.msg_stub / 2 + model.msg_runtime / 2,
       false},
      // Buffer acquisition under the global lock.
      {model.msg_buffer_mgmt / 2, true},
      {model.kernel_trap, false},
      // Enqueue + scheduling lump + handoff + dispatch under the lock.
      {model.msg_queue_ops / 2 + model.msg_scheduling / 2 + handoff +
           model.msg_dispatch / 2,
       true},
      {model.context_switch, false},
      {model.msg_stub / 2, false},  // Server stub half.
      {model.kernel_trap, false},
      // Reply: buffer + queue + scheduling + handoff + dispatch.
      {model.msg_buffer_mgmt / 2 + model.msg_queue_ops / 2 +
           model.msg_scheduling / 2 + handoff + model.msg_dispatch / 2,
       true},
      {model.context_switch, false},
      {model.msg_runtime / 2, false},
  };
}

}  // namespace lrpc
