// The benchmark's world: one server domain exporting one interface with
// Null, Add and Echo, and its callers, built the way ParWorld and ProcWorld
// build theirs but with the benchmark's own handlers, which count their
// executions and stamp the server layer's spans.
//
//   Null  no arguments.
//   Add   4+4 bytes in, 4 out; inline-eligible.
//   Echo  one variable-size byte array in (at most kEchoMaxBytes) and one
//         out: the input reversed. Exported twice: the small variant's
//         A-stack fits one entry of the process backend's batch area, so
//         an AsyncRing flush of small Echo calls crosses behind one
//         doorbell; the large variant's takes ExecuteBatch's per-call
//         fallback.

#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/trace.h"
#include "src/lrpc/runtime.h"
#include "src/par/parallel_machine.h"
#include "src/proc/proc_host.h"
#include "src/proc/proc_segment.h"

namespace perfbench {

// Figure 1's calls move at most 1800 bytes in and out together; Echo's
// reply is as long as its argument, so each direction carries half.
inline constexpr std::size_t kEchoMaxBytes = 900;
// Each direction's A-stack slot holds a length word and the bytes, so two
// slots of 4+508 bytes fill a 1024-byte batch entry exactly.
inline constexpr std::size_t kSmallEchoMaxBytes = 508;

struct WorldSpec {
  // kParallelHost or kMultiProcess.
  lrpc::RuntimeBackend backend = lrpc::RuntimeBackend::kParallelHost;
  int callers = 1;         // Caller c drives processor c (parallel host).
  int client_domains = 1;  // Caller c binds through domain c % domains.
};

// Host time of the set-up steps of one build.
struct SetupTimes {
  double world_s = 0.0;   // The whole build.
  double import_ns = 0.0;  // Every LrpcRuntime::Import.
  double spawn_ns = 0.0;   // ProcHost::SpawnServer (process backend).
  double adopt_ns = 0.0;   // ParallelMachine::AdoptWorld (parallel host).
};

class World {
 public:
  // Builds the world and times its set-up into *times. On the process
  // backend the server process is pinned to `server_core`.
  static lrpc::Result<std::unique_ptr<World>> Build(const WorldSpec& spec,
                                                    int server_core,
                                                    SetupTimes* times);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  lrpc::Kernel& kernel() { return *kernel_; }
  lrpc::LrpcRuntime& runtime() { return *runtime_; }
  lrpc::ParallelMachine* par() { return par_.get(); }
  lrpc::ProcHost* host() { return host_.get(); }
  // The server's shared log (process backend only).
  ServerLog* server_log() { return log_; }
  int server_pid() const;

  lrpc::Processor& cpu(int caller);
  lrpc::ThreadId thread(int caller) const {
    return threads_[static_cast<std::size_t>(caller)];
  }
  lrpc::ClientBinding& binding(int caller) {
    return *bindings_[static_cast<std::size_t>(caller) % bindings_.size()];
  }

  int null_proc() const { return null_proc_; }
  int add_proc() const { return add_proc_; }
  // The Echo variant that carries `small` calls (length at most
  // kSmallEchoMaxBytes) or the others.
  int echo_proc(bool small) const {
    return small ? small_echo_proc_ : echo_proc_;
  }
  const lrpc::ProcedureDescriptor& pd(int procedure) const;

 private:
  explicit World(const WorldSpec& spec) : spec_(spec) {}
  lrpc::Status Init(int server_core, SetupTimes* times);
  void AddProcedures(lrpc::Interface* iface);

  WorldSpec spec_;
  std::unique_ptr<lrpc::Machine> machine_;
  std::unique_ptr<lrpc::Kernel> kernel_;
  std::unique_ptr<lrpc::LrpcRuntime> runtime_;
  // Outlives the server process, which writes it until host_ stops it.
  lrpc::ProcSegment log_segment_;
  ServerLog* log_ = nullptr;
  std::unique_ptr<lrpc::ProcHost> host_;  // After runtime_: destroyed first.
  std::unique_ptr<lrpc::ParallelMachine> par_;
  lrpc::DomainId server_ = lrpc::kNoDomain;
  const lrpc::Interface* iface_ = nullptr;
  std::vector<lrpc::ThreadId> threads_;
  std::vector<lrpc::ClientBinding*> bindings_;
  int null_proc_ = -1;
  int add_proc_ = -1;
  int echo_proc_ = -1;
  int small_echo_proc_ = -1;
};

// Handler executions of the in-process (parallel host) server on the
// calling thread: there the handlers run on their caller's thread, and a
// per-thread count keeps a shared write off the call path.
std::uint64_t ServerExecutionsOnThisThread();

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
