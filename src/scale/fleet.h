// FleetWorld: the fleet-scale traffic harness (docs/scale.md).
//
// Stands up S server domains, each exporting a three-procedure interface
// (one per Figure-1 argument-size class), and C client domains each
// importing K of those interfaces — C x K bindings, 10k+ at the 1000-domain
// configuration. RunScenario then replays a seeded open-loop arrival
// process against the fleet and reports throughput, per-class sojourn
// percentiles and admission outcomes.
//
// The queueing model is per worker: worker w owns the client domains
// { c : c mod W == w } and drives processor w. An offered call arriving at
// time `a` begins service at max(processor clock, a); its sojourn is
// completion minus arrival. Because arrivals are open-loop, a worker
// offered more than its capacity accumulates backlog in its processor
// clock — exactly the condition admission control (src/scale/admission.h)
// exists to bound. Workers share no mutable call-path state (each binding
// belongs to exactly one worker), so the same scenario runs unchanged on
// the deterministic simulator (W == 1) and on the real-thread
// kParallelHost backend, and both produce deterministic reports for a
// given seed.
//
// Degraded calls (kDegradeToMsgRpc) run on a modeled per-worker message-RPC
// clerk channel: its own service clock, `msg_rpc_cost_factor` times the
// LRPC cost — the Section 5 observation that message RPC remains available
// as the slow, robust fallback.

#ifndef SRC_SCALE_FLEET_H_
#define SRC_SCALE_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/kern/kernel.h"
#include "src/lrpc/runtime.h"
#include "src/par/parallel_machine.h"
#include "src/scale/admission.h"
#include "src/scale/arrival.h"
#include "src/scale/slo.h"
#include "src/sim/machine.h"

namespace lrpc {

// Payload bytes per class. kSmall rides inline in A-stack words; kLarge is
// the Figure-1 maximum-packet spike.
inline constexpr std::size_t kSmallPayload = 8;
inline constexpr std::size_t kMediumPayload = 64;
inline constexpr std::size_t kLargePayload = 1448;

struct FleetOptions {
  MachineModel model = MachineModel::CVaxFirefly();
  RuntimeBackend backend = RuntimeBackend::kDeterministicSim;
  int server_domains = 10;
  int client_domains = 10;
  int imports_per_client = 10;  // Bindings = client_domains * this.
  int workers = 1;              // Must be 1 on the sim backend.
  // Free A-stacks per group per binding for the small/medium group; the
  // large group gets half (its A-stacks are ~1.4KB each).
  int astacks_per_group = 4;
  bool lock_free = true;
  std::uint64_t seed = 0x5ca1e;
  TrafficOptions traffic;
  // Modeled cost multiplier of the message-RPC fallback channel.
  double msg_rpc_cost_factor = 3.0;
};

struct ScenarioOptions {
  // Offered load as a fraction of per-worker capacity (1.0 = saturation).
  double load_factor = 0.5;
  // Offered calls across all workers.
  std::uint64_t calls = 100000;
  std::uint64_t seed = 7;
  AdmissionOptions admission;
};

// Everything a scenario run reports. All latencies are ns of sim time.
struct FleetReport {
  struct PerClass {
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t failed = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t degraded_p99 = 0;
  };

  PerClass per_class[kCallClassCount];
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;
  double shed_fraction = 0.0;

  // Aggregate admitted-latency percentiles over all classes.
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;

  // Longest wait any offered call saw before its admission decision: the
  // backlog probe the no-unbounded-queueing gate reads.
  std::uint64_t max_wait = 0;

  // Elapsed sim time (max over workers) and admitted-call throughput.
  double sim_seconds = 0.0;
  double admitted_per_second = 0.0;

  // Calibration and derived thresholds, for reproducibility in the bench
  // JSON: mean service cost per offered call, the wait threshold in force,
  // and the p99 SLO target (threshold + margin) the gates compare against.
  double mean_service_ns = 0.0;
  std::uint64_t max_queue_delay = 0;
  std::uint64_t slo_p99 = 0;

  // Breaker activity summed over bindings (kRejectAtBind).
  std::uint64_t breaker_rejections = 0;
  std::uint64_t breaker_transitions = 0;

  // The merged tracker, for tests that want the full distributions.
  std::shared_ptr<const SloTracker> tracker;
};

class FleetWorld {
 public:
  explicit FleetWorld(FleetOptions options);

  Machine& machine() { return *machine_; }
  Kernel& kernel() { return *kernel_; }
  LrpcRuntime& runtime() { return *runtime_; }
  // Null on the deterministic backend.
  ParallelMachine* par() { return par_.get(); }
  const FleetOptions& options() const { return options_; }

  int binding_count() const { return static_cast<int>(bindings_.size()); }
  int worker_binding_count(int w) const {
    return static_cast<int>(
        worker_bindings_[static_cast<std::size_t>(w)].size());
  }
  ClientBinding& binding(int i) {
    return *bindings_[static_cast<std::size_t>(i)];
  }

  // Mean modeled cost of one offered call (class-mix weighted), measured by
  // a calibration probe on worker 0. Cached after the first measurement.
  double MeanServiceNs();

  FleetReport RunScenario(const ScenarioOptions& scenario);

 private:
  struct WorkerOutcome {
    SloTracker tracker;
    SimDuration max_wait = 0;
    SimDuration elapsed = 0;
    std::uint64_t admitted = 0;
  };

  Status Dispatch(int w, int binding_index, CallClass c,
                  const std::uint8_t* payload, std::uint8_t* reply);
  void WorkerLoop(int w, const ScenarioOptions& scenario,
                  AdmissionController& controller, std::uint64_t calls,
                  WorkerOutcome& outcome);

  FleetOptions options_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<LrpcRuntime> runtime_;
  std::unique_ptr<ParallelMachine> par_;

  std::vector<DomainId> servers_;
  std::vector<DomainId> clients_;
  std::vector<ThreadId> client_threads_;       // One per client domain.
  std::vector<ClientBinding*> bindings_;       // All bindings, fleet-wide.
  std::vector<ThreadId> binding_threads_;      // Owning client's thread.
  std::vector<std::vector<int>> worker_bindings_;  // Binding ids per worker.
  int procs_[kCallClassCount] = {-1, -1, -1};  // Procedure index per class.
  double mean_service_ns_ = 0.0;
  double class_service_ns_[kCallClassCount] = {0.0, 0.0, 0.0};
};

}  // namespace lrpc

#endif  // SRC_SCALE_FLEET_H_
