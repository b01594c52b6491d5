#include "perfbench/world.h"

#include <algorithm>
#include <new>
#include <string>

#include "perfbench/host.h"
#include "src/common/check.h"
#include "src/lrpc/async_call.h"
#include "src/lrpc/server_frame.h"
#include "src/proc/proc_channel.h"

namespace perfbench {

namespace {

thread_local std::uint64_t tls_server_executions = 0;

// Every free A-stack is one call the binding admits at once: enough for an
// AsyncRing at full depth, or two callers per binding.
constexpr int kSimultaneousCalls = lrpc::AsyncRing::kMaxDepth;

double ElapsedNs(std::int64_t start) {
  return static_cast<double>(NowNs() - start);
}

// Brackets one handler execution: counts it and stamps its span. In process
// the span nests in the caller's trace; a server process stamps it into
// the shared log, where the client's TracingTransport collects it.
class ServerScope {
 public:
  explicit ServerScope(ServerLog* log)
      : log_(log),
        tracing_(log != nullptr
                     ? log->tracing.load(std::memory_order_relaxed) != 0
                     : CurrentTrace() != nullptr) {
    if (tracing_) {
      if (log_ == nullptr) {
        CurrentTrace()->Begin(Layer::kServer);
      } else {
        start_ns_ = NowNs();
      }
    }
  }

  ~ServerScope() {
    if (log_ == nullptr) {
      if (tracing_) {
        CurrentTrace()->End();
      }
      ++tls_server_executions;
      return;
    }
    // The server process is the log's only writer.
    const std::uint64_t n = log_->executions.load(std::memory_order_relaxed);
    if (tracing_) {
      log_->ring[n % kServerRing] = ServerSpan{start_ns_, NowNs()};
    }
    log_->executions.store(n + 1, std::memory_order_release);
  }

  ServerScope(const ServerScope&) = delete;
  ServerScope& operator=(const ServerScope&) = delete;

 private:
  ServerLog* log_;
  bool tracing_;
  std::int64_t start_ns_ = 0;
};

}  // namespace

std::uint64_t ServerExecutionsOnThisThread() { return tls_server_executions; }

lrpc::Result<std::unique_ptr<World>> World::Build(const WorldSpec& spec,
                                                  int server_core,
                                                  SetupTimes* times) {
  std::unique_ptr<World> world(new World(spec));
  const std::int64_t start = NowNs();
  *times = SetupTimes{};
  LRPC_RETURN_IF_ERROR(world->Init(server_core, times));
  times->world_s = ElapsedNs(start) * 1e-9;
  return world;
}

World::~World() = default;

lrpc::Status World::Init(int server_core, SetupTimes* times) {
  LRPC_CHECK(spec_.callers >= 1 && spec_.client_domains >= 1);
  const bool proc = spec_.backend == lrpc::RuntimeBackend::kMultiProcess;
  // The process backend drives one caller on one processor.
  LRPC_CHECK(!proc || spec_.callers == 1);

  machine_ = std::make_unique<lrpc::Machine>(lrpc::MachineModel::CVaxFirefly(),
                                             spec_.callers);
  kernel_ = std::make_unique<lrpc::Kernel>(*machine_);
  kernel_->set_domain_caching(true);
  runtime_ = std::make_unique<lrpc::LrpcRuntime>(*kernel_, spec_.backend);
  if (proc) {
    host_ = std::make_unique<lrpc::ProcHost>(*runtime_);
    // Mapped before the fork, so the server process inherits it.
    LRPC_RETURN_IF_ERROR(log_segment_.Map(sizeof(ServerLog)));
    log_ = new (log_segment_.data()) ServerLog();
  }

  lrpc::DomainConfig server_config;
  server_config.name = "perf.server";
  if (!proc) {
    // No E-stack growth under concurrent callers: budget one E-stack per
    // A-stack of every binding and group up front, as ParWorld does.
    server_config.estack_capacity = spec_.client_domains * 4 * kSimultaneousCalls;
  }
  server_ = kernel_->CreateDomain(server_config);
  std::vector<lrpc::DomainId> clients;
  for (int d = 0; d < spec_.client_domains; ++d) {
    lrpc::DomainConfig client_config;
    client_config.name = "perf.client" + std::to_string(d);
    clients.push_back(kernel_->CreateDomain(client_config));
  }

  lrpc::Interface* iface = runtime_->CreateInterface(server_, "perf.Bench");
  AddProcedures(iface);
  iface_ = iface;
  LRPC_RETURN_IF_ERROR(runtime_->Export(iface));

  if (proc) {
    const std::int64_t spawn_start = NowNs();
    LRPC_RETURN_IF_ERROR(host_->SpawnServer(server_, iface));
    times->spawn_ns = ElapsedNs(spawn_start);
    PinProcess(host_->peer_pid(server_), server_core);
  }

  const std::int64_t import_start = NowNs();
  for (const lrpc::DomainId client : clients) {
    lrpc::Result<lrpc::ClientBinding*> bound =
        runtime_->Import(machine_->processor(0), client, iface->name());
    LRPC_RETURN_IF_ERROR(bound.status());
    bindings_.push_back(*bound);
  }
  times->import_ns = ElapsedNs(import_start);

  for (int c = 0; c < spec_.callers; ++c) {
    const lrpc::DomainId domain =
        clients[static_cast<std::size_t>(c % spec_.client_domains)];
    const lrpc::ThreadId t = kernel_->CreateThread(domain);
    threads_.push_back(t);
    machine_->processor(c).LoadContext(kernel_->domain(domain).vm_context());
    kernel_->thread(t).set_current_domain(domain);
  }

  if (!proc) {
    lrpc::ParallelOptions options;
    options.workers = spec_.callers;
    par_ = std::make_unique<lrpc::ParallelMachine>(*runtime_, options);
    const std::int64_t adopt_start = NowNs();
    par_->AdoptWorld();
    times->adopt_ns = ElapsedNs(adopt_start);
  }
  return lrpc::Status::Ok();
}

void World::AddProcedures(lrpc::Interface* iface) {
  ServerLog* log = log_;
  {
    lrpc::ProcedureDef def;
    def.name = "Null";
    def.simultaneous_calls = kSimultaneousCalls;
    def.handler = [log](lrpc::ServerFrame&) {
      ServerScope scope(log);
      return lrpc::Status::Ok();
    };
    null_proc_ = iface->AddProcedure(std::move(def));
  }
  {
    lrpc::ProcedureDef def;
    def.name = "Add";
    def.simultaneous_calls = kSimultaneousCalls;
    def.params.push_back(
        {.name = "a", .direction = lrpc::ParamDirection::kIn, .size = 4});
    def.params.push_back(
        {.name = "b", .direction = lrpc::ParamDirection::kIn, .size = 4});
    def.params.push_back(
        {.name = "sum", .direction = lrpc::ParamDirection::kOut, .size = 4});
    def.handler = [log](lrpc::ServerFrame& frame) -> lrpc::Status {
      ServerScope scope(log);
      lrpc::Result<std::int32_t> a = frame.Arg<std::int32_t>(0);
      lrpc::Result<std::int32_t> b = frame.Arg<std::int32_t>(1);
      if (!a.ok()) {
        return a.status();
      }
      if (!b.ok()) {
        return b.status();
      }
      // Wrapping sum: the seeded operands span the whole int32 range.
      const auto sum = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(*a) + static_cast<std::uint32_t>(*b));
      return frame.Result_<std::int32_t>(2, sum);
    };
    add_proc_ = iface->AddProcedure(std::move(def));
  }
  const auto add_echo = [iface, log](const char* name, std::size_t max_bytes,
                                      std::size_t astack_bytes) {
    lrpc::ProcedureDef def;
    def.name = name;
    def.simultaneous_calls = kSimultaneousCalls;
    def.astack_size_override = astack_bytes;
    def.params.push_back({.name = "in",
                          .direction = lrpc::ParamDirection::kIn,
                          .max_size = max_bytes});
    def.params.push_back({.name = "out",
                          .direction = lrpc::ParamDirection::kOut,
                          .max_size = max_bytes});
    def.handler = [log](lrpc::ServerFrame& frame) -> lrpc::Status {
      ServerScope scope(log);
      std::uint8_t buffer[kEchoMaxBytes];
      lrpc::Result<std::size_t> n = frame.ReadArg(0, buffer, sizeof(buffer));
      if (!n.ok()) {
        return n.status();
      }
      std::reverse(buffer, buffer + *n);
      return frame.WriteResult(1, buffer, *n);
    };
    return iface->AddProcedure(std::move(def));
  };
  // The large variant keeps the default A-stack for variable-size
  // arguments; the small one asks for exactly its two slots.
  echo_proc_ = add_echo("Echo", kEchoMaxBytes, 0);
  constexpr std::size_t kSmallEchoAStack =
      2 * (sizeof(std::uint32_t) + kSmallEchoMaxBytes);
  static_assert(kSmallEchoAStack <= lrpc::kProcBatchEntryBytes,
                "a small Echo window must fit one batch entry");
  small_echo_proc_ =
      add_echo("EchoSmall", kSmallEchoMaxBytes, kSmallEchoAStack);
}

int World::server_pid() const {
  return host_ != nullptr ? host_->peer_pid(server_) : -1;
}

lrpc::Processor& World::cpu(int caller) { return machine_->processor(caller); }

const lrpc::ProcedureDescriptor& World::pd(int procedure) const {
  return iface_->pd(procedure);
}

}  // namespace perfbench
