// The benchmark's workloads: seeded inputs and the closed-loop callers
// that drive a World through the public call APIs and check every reply.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/world.h"
#include "src/common/histogram.h"

namespace perfbench {

enum class Driver {
  kParSmall,   // Null/Add through CallParallel or CallInlineParallel.
  kProcSync,   // Echo through LrpcRuntime::Call.
  kProcAsync,  // Echo through one AsyncRing: submit 16, flush, reap.
};

struct Workload {
  const char* name;
  Driver driver;
  WorldSpec spec;
  // Latency histogram bucket width: kBuckets of them must span the
  // workload's slowest calls (an async call waits for its whole batch).
  std::uint64_t bucket_ns;
};

// Null when `name` is not a workload.
const Workload* FindWorkload(std::string_view name);

// One caller's pre-generated calls, replayed cyclically so the RNG never
// runs inside a timed window.
struct SmallCall {
  bool add = false;          // Add, else Null.
  bool inline_path = false;  // CallInlineParallel, else CallParallel.
  std::int32_t a = 0;
  std::int32_t b = 0;
};
struct EchoCall {
  std::uint32_t offset = 0;  // Argument bytes start at Inputs::payload[offset].
  std::uint32_t length = 0;
  bool small = false;  // Carried by the small Echo variant.
};
struct Inputs {
  std::vector<std::vector<SmallCall>> small;  // Per caller.
  std::vector<EchoCall> echo;
  std::vector<std::uint8_t> payload;
};
Inputs GenerateInputs(const Workload& workload, std::uint64_t seed);

// A timed window [start_ns, end_ns). Callers start at once and run until
// end_ns; calls that complete before start_ns are warm-up and are not
// counted in the window.
struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// What every caller saw, summed.
struct CallerTotals {
  explicit CallerTotals(std::uint64_t bucket_ns)
      : latency(NewLatencyHistogram(bucket_ns)) {}

  lrpc::Histogram latency;  // Calls inside the window.
  std::int64_t client_cpu_ns = 0;  // Over the window: this process.
  std::int64_t server_cpu_ns = 0;  // Over the window: the server process.
  std::uint64_t attempted = 0;  // Calls that completed inside the window.
  std::uint64_t failed = 0;     // Of those: non-ok status or wrong reply.
  std::uint64_t completed = 0;  // Every call that returned, warm-up too.
  std::uint64_t ok = 0;         // Of those: ok status.
  std::uint64_t bad = 0;        // Of those: non-ok status or wrong reply.
  std::uint64_t server_executions = 0;  // In-process handler runs.
  std::vector<std::uint64_t> per_caller;  // Window calls, by caller.
};

// Runs every caller of `workload` over `window` and measures the CPU time
// spent in it. With `traces` non-null, caller c records its spans into
// (*traces)[c] for the whole run.
CallerTotals RunCallers(const Workload& workload, World& world,
                        const Inputs& inputs, const Window& window,
                        std::vector<ThreadTrace>* traces);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
