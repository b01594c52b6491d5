#include "src/par/par_world.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"
#include "src/lrpc/server_frame.h"

namespace lrpc {

namespace {

// Group-size parity with Testbed's procedures: small-argument procedures
// share one A-stack group, the 200-byte ones another.
constexpr int kGroupBudgetFactor = 4;  // Over-provision E-stacks per group.

}  // namespace

ParWorld::ParWorld(ParWorldOptions options) : options_(options) {
  LRPC_CHECK(options_.workers >= 1);
  LRPC_CHECK(options_.domains >= 1);
  if (options_.backend == RuntimeBackend::kDeterministicSim) {
    // The simulator is single-threaded by construction; multiple workers
    // only make sense on the parallel backend.
    LRPC_CHECK(options_.workers == 1);
  }

  machine_ = std::make_unique<Machine>(options_.model,
                                       options_.workers + options_.parked);
  kernel_ = std::make_unique<Kernel>(*machine_);
  kernel_->set_domain_caching(options_.domain_caching);
  runtime_ = std::make_unique<LrpcRuntime>(*kernel_, options_.backend);

  // Parallel mode never grows the E-stack pool on demand from concurrent
  // callers, so the server's budget must cover every A-stack that could be
  // associated: all bindings, all groups.
  DomainConfig server_config;
  server_config.name = "par.server";
  server_config.estack_capacity =
      options_.domains * kGroupBudgetFactor * options_.astacks_per_group;
  server_ = kernel_->CreateDomain(server_config);

  for (int d = 0; d < options_.domains; ++d) {
    DomainConfig client_config;
    client_config.name = "par.client" + std::to_string(d);
    clients_.push_back(kernel_->CreateDomain(client_config));
  }

  iface_ = runtime_->CreateInterface(server_, "par.Measures");
  {
    ProcedureDef def;
    def.name = "Null";
    def.simultaneous_calls = options_.astacks_per_group;
    def.handler = [this](ServerFrame& frame) {
      server_counts_.Add(frame.cpu().id(), kCallsSeen);
      return Status::Ok();
    };
    null_proc_ = iface_->AddProcedure(std::move(def));
  }
  {
    ProcedureDef def;
    def.name = "Add";
    def.simultaneous_calls = options_.astacks_per_group;
    def.params.push_back(
        {.name = "a", .direction = ParamDirection::kIn, .size = 4});
    def.params.push_back(
        {.name = "b", .direction = ParamDirection::kIn, .size = 4});
    def.params.push_back(
        {.name = "sum", .direction = ParamDirection::kOut, .size = 4});
    def.handler = [this](ServerFrame& frame) -> Status {
      Result<std::int32_t> a = frame.Arg<std::int32_t>(0);
      Result<std::int32_t> b = frame.Arg<std::int32_t>(1);
      if (!a.ok()) {
        return a.status();
      }
      if (!b.ok()) {
        return b.status();
      }
      server_counts_.Add(frame.cpu().id(), kCallsSeen);
      // Unsigned wraparound, as in Testbed: callers probe INT_MAX + 1.
      const auto sum = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(*a) + static_cast<std::uint32_t>(*b));
      return frame.Result_<std::int32_t>(2, sum);
    };
    add_proc_ = iface_->AddProcedure(std::move(def));
  }
  {
    ProcedureDef def;
    def.name = "BigIn";
    def.simultaneous_calls = options_.astacks_per_group;
    def.params.push_back({.name = "data", .direction = ParamDirection::kIn,
                          .size = kParBigSize});
    def.handler = [this](ServerFrame& frame) -> Status {
      Result<const std::uint8_t*> view = frame.ArgView(0);
      if (!view.ok()) {
        return view.status();
      }
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < kParBigSize; ++i) {
        sum += (*view)[i];
      }
      // Accumulate, not overwrite: concurrent handlers must not lose each
      // other's observation (the stress test balances the grand total).
      server_counts_.Add(frame.cpu().id(), kBytesSeen, sum);
      server_counts_.Add(frame.cpu().id(), kCallsSeen);
      return Status::Ok();
    };
    bigin_proc_ = iface_->AddProcedure(std::move(def));
  }
  {
    ProcedureDef def;
    def.name = "BigInOut";
    def.simultaneous_calls = options_.astacks_per_group;
    def.params.push_back(
        {.name = "in", .direction = ParamDirection::kIn, .size = kParBigSize});
    def.params.push_back({.name = "out", .direction = ParamDirection::kOut,
                          .size = kParBigSize});
    def.handler = [this](ServerFrame& frame) -> Status {
      std::uint8_t buffer[kParBigSize];
      Result<std::size_t> n = frame.ReadArg(0, buffer, sizeof(buffer));
      if (!n.ok()) {
        return n.status();
      }
      server_counts_.Add(frame.cpu().id(), kCallsSeen);
      std::reverse(buffer, buffer + kParBigSize);
      return frame.WriteResult(1, buffer, kParBigSize);
    };
    biginout_proc_ = iface_->AddProcedure(std::move(def));
  }
  LRPC_CHECK_OK(runtime_->Export(iface_));

  for (int d = 0; d < options_.domains; ++d) {
    Result<ClientBinding*> bound =
        runtime_->Import(machine_->processor(0), clients_[static_cast<
                             std::size_t>(d)],
                         iface_->name());
    LRPC_CHECK(bound.ok());
    bindings_.push_back(*bound);
  }

  for (int w = 0; w < options_.workers; ++w) {
    const DomainId dom =
        clients_[static_cast<std::size_t>(w % options_.domains)];
    const ThreadId t = kernel_->CreateThread(dom);
    threads_.push_back(t);
    machine_->processor(w).LoadContext(kernel_->domain(dom).vm_context());
    kernel_->thread(t).set_current_domain(dom);
  }

  if (options_.backend == RuntimeBackend::kParallelHost) {
    ParallelOptions par_options;
    par_options.workers = options_.workers;
    par_options.lock_free = options_.lock_free;
    par_ = std::make_unique<ParallelMachine>(*runtime_, par_options);
    par_->AdoptWorld();
  }
  // After adoption, so on the parallel backend each parked processor is
  // published to the claim registry.
  for (int p = 0; p < options_.parked; ++p) {
    kernel_->ParkIdleProcessor(machine_->processor(options_.workers + p),
                               server_);
  }
}

Status ParWorld::Dispatch(int w, ClientBinding& binding, int procedure,
                          std::span<const CallArg> args,
                          std::span<const CallRet> rets, CallStats* stats) {
  CallStats local;
  CallStats& cs = stats != nullptr ? *stats : local;
  if (par_ != nullptr) {
    return par_->Call(w, worker_thread(w), binding, procedure, args, rets, cs);
  }
  return runtime_->Call(machine_->processor(w), worker_thread(w), binding,
                        procedure, args, rets, &cs);
}

Status ParWorld::CallNull(int w, CallStats* stats) {
  return Dispatch(w, worker_binding(w), null_proc_, {}, {}, stats);
}

Status ParWorld::CallAdd(int w, std::int32_t a, std::int32_t b,
                         std::int32_t* sum, CallStats* stats) {
  const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet rets[] = {CallRet::Of(sum)};
  return Dispatch(w, worker_binding(w), add_proc_, args, rets, stats);
}

Status ParWorld::CallBigIn(int w, const std::uint8_t (&data)[kParBigSize],
                           CallStats* stats) {
  const CallArg args[] = {CallArg(data, kParBigSize)};
  return Dispatch(w, worker_binding(w), bigin_proc_, args, {}, stats);
}

Status ParWorld::CallBigInOut(int w, const std::uint8_t (&in)[kParBigSize],
                              std::uint8_t (&out)[kParBigSize],
                              CallStats* stats) {
  const CallArg args[] = {CallArg(in, kParBigSize)};
  const CallRet rets[] = {CallRet(out, kParBigSize)};
  return Dispatch(w, worker_binding(w), biginout_proc_, args, rets, stats);
}

}  // namespace lrpc
