// lrpc_perf: the repository benchmark's measuring program (run.py builds
// and runs it).
//
//   lrpc_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's world several times (set-up time is the median),
// generates the seeded calls, warms up, then runs the callers closed-loop.
// With --trace 0 it times `seconds` and reports the end-to-end metrics over
// that window. With --trace 1 it runs half the time untraced and half
// traced, and reports the per-layer metrics.
//
// Standard output: a host line, then one JSON result line,
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every reply is checked, and the handlers' own execution count must equal
// the calls the client saw succeed; a failed call or a wrong reply anywhere
// in the run, or a count mismatch, makes "correct" false and the exit code
// 1.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/host.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "perfbench/world.h"
#include "src/common/check.h"

namespace perfbench {
namespace {

constexpr int kSetupBuilds = 101;  // Timed builds; one more warms up.
// Each build starts after a pause, cold, as a world built once does.
// Back-to-back builds ran on caches the previous build had warmed, and the
// whole series fell inside one phase of a shared host's load, which moved a
// run's median set-up time by half from one run to the next.
constexpr auto kSetupPause = std::chrono::milliseconds(10);
constexpr double kWarmupSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double Median(std::vector<double> values) {
  LRPC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// Percentile with linear interpolation inside the bucket it falls in, so
// the bucket width does not quantize the result.
double Percentile(const lrpc::Histogram& h, double fraction) {
  if (h.total_count() == 0) {
    return 0.0;
  }
  const double target = fraction * static_cast<double>(h.total_count());
  double below = 0.0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    const auto count = static_cast<double>(h.bucket_value(i));
    if (count > 0.0 && below + count >= target) {
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(h.bucket_upper_edge(i - 1));
      const double upper = static_cast<double>(h.bucket_upper_edge(i));
      return lower + (upper - lower) * (target - below) / count;
    }
    below += count;
  }
  return static_cast<double>(h.max());
}

double PerCall(double total, std::uint64_t calls) {
  return calls == 0 ? 0.0 : total / static_cast<double>(calls);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::int64_t WindowFromNow(double seconds) {
  return NowNs() + static_cast<std::int64_t>(seconds * 1e9);
}

// Shared-structure counters of the parallel-host call path, read from each
// layer's public stats.
struct LayerCounters {
  std::uint64_t validations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t seq_retries = 0;
  std::uint64_t pops = 0;
  std::uint64_t pushes = 0;
  std::uint64_t cas_retries = 0;
  std::uint64_t idle_claims = 0;
  std::uint64_t idle_failed_claims = 0;
  std::uint64_t transfers = 0;
};

LayerCounters ReadCounters(World& world) {
  LayerCounters c;
  if (lrpc::ParallelMachine* par = world.par()) {
    c.validations = par->bindings().validations();
    c.cache_hits = par->bindings().cache_hits();
    c.seq_retries = par->bindings().seq_retries();
    for (const auto& list : par->free_lists()) {
      c.pops += list->pops();
      c.pushes += list->pushes();
      c.cas_retries += list->cas_retries();
    }
    if (lrpc::IdleProcessorRegistry* idle =
            world.runtime().machine().parallel_idle()) {
      c.idle_claims = idle->claims();
      c.idle_failed_claims = idle->failed_claims();
    }
  }
  if (lrpc::ProcHost* host = world.host()) {
    c.transfers = host->transfers();
  }
  return c;
}

int Run(const Args& args) {
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool proc =
      workload->spec.backend == lrpc::RuntimeBackend::kMultiProcess;

  const HostStamp host = StampHost();
  const int busy = workload->spec.callers + (proc ? 1 : 0);
  std::printf(
      "{\"host\": {\"nproc\": %d, \"cpu_model\": %s, \"kernel_release\": %s, "
      "\"calibration_ns\": %.0f, \"busy_threads\": %d, "
      "\"oversubscribed\": %s}}\n",
      host.nproc, JsonString(host.cpu_model).c_str(),
      JsonString(host.kernel_release).c_str(), host.calibration_ns, busy,
      busy > host.nproc ? "true" : "false");
  std::fflush(stdout);

  // Set-up, before any caller thread exists: the process backend forks.
  // Caller 0 runs on core 0, so a server process gets core 1.
  const int server_core = 1;
  std::vector<SetupTimes> setups;
  std::unique_ptr<World> world;
  for (int build = 0; build <= kSetupBuilds; ++build) {
    world.reset();
    std::this_thread::sleep_for(kSetupPause);
    SetupTimes times;
    lrpc::Result<std::unique_ptr<World>> built =
        World::Build(workload->spec, server_core, &times);
    if (!built.ok()) {
      std::fprintf(stderr, "world set-up failed: %s\n",
                   std::string(lrpc::ErrorCodeName(built.status().code())).c_str());
      return 1;
    }
    world = std::move(*built);
    if (build > 0) {
      setups.push_back(times);
    }
  }
  const auto setup_median = [&setups](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& s : setups) {
      values.push_back(s.*field);
    }
    return Median(values);
  };

  const Inputs inputs = GenerateInputs(*workload, args.seed);
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok_calls = 0;
  std::uint64_t bad = 0;
  std::uint64_t in_process_executions = 0;
  const auto account = [&](const CallerTotals& t) {
    attempted += t.attempted;
    failed += t.failed;
    ok_calls += t.ok;
    bad += t.bad;
    in_process_executions += t.server_executions;
  };

  if (!args.trace) {
    Window window;
    window.start_ns = WindowFromNow(kWarmupSeconds);
    window.end_ns =
        window.start_ns + static_cast<std::int64_t>(args.seconds * 1e9);
    const CallerTotals totals =
        RunCallers(*workload, *world, inputs, window, nullptr);
    account(totals);
    const double cpu_ns =
        static_cast<double>(totals.client_cpu_ns + totals.server_cpu_ns);
    metrics = {
        {"calls_per_s", static_cast<double>(totals.attempted) / args.seconds,
         "1/s"},
        {"p50_ns", Percentile(totals.latency, 0.50), "ns"},
        {"p99_ns", Percentile(totals.latency, 0.99), "ns"},
        {"cpu_ns_per_call", PerCall(cpu_ns, totals.attempted), "ns"},
        {"setup_s", setup_median(&SetupTimes::world_s), "s"},
        {"max_rss_mib", MaxRssMib(), "MiB"},
    };
  } else {
    // Untraced half: the reference for the tracing overhead, and the CPU
    // split between client and server.
    Window plain;
    plain.start_ns = WindowFromNow(kWarmupSeconds);
    plain.end_ns =
        plain.start_ns + static_cast<std::int64_t>(args.seconds * 0.5e9);
    const CallerTotals untraced =
        RunCallers(*workload, *world, inputs, plain, nullptr);
    account(untraced);
    const double untraced_rate =
        static_cast<double>(untraced.attempted) / (args.seconds * 0.5);

    // Traced half: spans, kernel events and layer counters, switched on
    // while no call is in flight.
    std::vector<ThreadTrace> traces(
        static_cast<std::size_t>(workload->spec.callers),
        ThreadTrace(workload->bucket_ns));
    EventCounter events;
    world->kernel().set_event_listener(&events);
    std::unique_ptr<TracingTransport> transport;
    if (proc) {
      world->server_log()->tracing.store(1, std::memory_order_relaxed);
      transport =
          std::make_unique<TracingTransport>(*world->host(), *world->server_log());
      world->runtime().AttachProcTransport(transport.get());
    }
    const LayerCounters before = ReadCounters(*world);
    Window traced_window;
    traced_window.start_ns = NowNs();
    traced_window.end_ns =
        traced_window.start_ns + static_cast<std::int64_t>(args.seconds * 0.5e9);
    const CallerTotals traced =
        RunCallers(*workload, *world, inputs, traced_window, &traces);
    const LayerCounters after = ReadCounters(*world);
    world->kernel().set_event_listener(nullptr);
    if (proc) {
      world->runtime().AttachProcTransport(world->host());
      world->server_log()->tracing.store(0, std::memory_order_relaxed);
    }
    account(traced);
    const double traced_rate =
        static_cast<double>(traced.attempted) / (args.seconds * 0.5);

    ThreadTrace all(workload->bucket_ns);
    for (const ThreadTrace& t : traces) {
      all.Merge(t);
    }
    const std::uint64_t calls = traced.completed;
    const auto self_sum = [&all](Layer layer) {
      const lrpc::Histogram& h = all.self(layer);
      return h.mean() * static_cast<double>(h.total_count());
    };
    const auto mean = [&](Layer layer) { return PerCall(self_sum(layer), calls); };
    const auto p99 = [&all](Layer layer) {
      return Percentile(all.self(layer), 0.99);
    };
    const auto per_call = [&](std::uint64_t count) {
      return PerCall(static_cast<double>(count), calls);
    };
    const auto event = [&](lrpc::KernelEventKind kind) {
      return per_call(all.events(kind));
    };
    const std::uint64_t full_validations = after.validations - before.validations;
    const std::uint64_t hits = after.cache_hits - before.cache_hits;
    const auto [min_calls, max_calls] =
        std::minmax_element(traced.per_caller.begin(), traced.per_caller.end());

    metrics = {
        {"lrpc.call.self_ns_mean", mean(Layer::kCall), "ns"},
        {"lrpc.call.self_ns_p99", p99(Layer::kCall), "ns"},
        {"lrpc.async.submit_ns_mean", mean(Layer::kSubmit), "ns"},
        {"lrpc.async.flush.self_ns_mean", mean(Layer::kFlush), "ns"},
        {"lrpc.async.reap_ns_mean", mean(Layer::kReap), "ns"},
        {"lrpc.copies_per_call", per_call(all.copies()), "count"},
        {"lrpc.bytes_copied_per_call", per_call(all.bytes_copied()), "B"},
        {"lrpc.astack_bytes_per_call", per_call(all.astack_bytes()), "B"},
        {"lrpc.oob_frac", per_call(all.oob_calls()), "frac"},
        {"kern.validations_per_call", per_call(full_validations), "count"},
        {"kern.binding_cache_hit_frac",
         PerCall(static_cast<double>(hits), hits + full_validations), "frac"},
        {"kern.seq_retries_per_call",
         per_call(after.seq_retries - before.seq_retries), "count"},
        {"kern.events_per_call.transfer",
         event(lrpc::KernelEventKind::kTransfer), "count"},
        {"kern.events_per_call.estack_ensured",
         event(lrpc::KernelEventKind::kEStackEnsured), "count"},
        {"kern.events_per_call.linkage_claimed",
         event(lrpc::KernelEventKind::kLinkageClaimed), "count"},
        {"kern.events_per_call.call_returned",
         event(lrpc::KernelEventKind::kCallReturned), "count"},
        {"shm.pops_per_call", per_call(after.pops - before.pops), "count"},
        {"shm.pushes_per_call", per_call(after.pushes - before.pushes), "count"},
        {"shm.cas_retries_per_call",
         per_call(after.cas_retries - before.cas_retries), "count"},
        {"sim.idle_claims_per_call",
         per_call(after.idle_claims - before.idle_claims), "count"},
        {"sim.idle_failed_claims_per_call",
         per_call(after.idle_failed_claims - before.idle_failed_claims), "count"},
        {"par.worker_calls_min_max_ratio",
         PerCall(static_cast<double>(*min_calls), *max_calls), "ratio"},
        {"proc.transfer.self_ns_mean", mean(Layer::kTransfer), "ns"},
        {"proc.transfer.self_ns_p99", p99(Layer::kTransfer), "ns"},
        {"proc.batch.self_ns_mean", mean(Layer::kBatch), "ns"},
        {"proc.transfers_per_call", per_call(after.transfers - before.transfers),
         "count"},
        {"proc.window_bytes_per_call", per_call(all.window_bytes()), "B"},
        {"proc.client_cpu_ns_per_call",
         proc ? PerCall(static_cast<double>(untraced.client_cpu_ns),
                        untraced.attempted)
              : 0.0,
         "ns"},
        {"proc.server_cpu_ns_per_call",
         PerCall(static_cast<double>(untraced.server_cpu_ns), untraced.attempted),
         "ns"},
        {"lrpc.import_ns", setup_median(&SetupTimes::import_ns), "ns"},
        {"proc.spawn_ns", setup_median(&SetupTimes::spawn_ns), "ns"},
        {"par.adopt_ns", setup_median(&SetupTimes::adopt_ns), "ns"},
        {"server.handler_ns_mean", mean(Layer::kServer), "ns"},
        {"trace.call_ns_mean", per_call(all.root_ns()), "ns"},
        {"trace.overhead_frac",
         untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0, "frac"},
        {"failed_frac", PerCall(static_cast<double>(failed), attempted), "frac"},
    };
  }

  // The handlers' own count of executions must match the calls the client
  // saw succeed: in process they counted per caller thread, a server
  // process counted in the shared log.
  const std::uint64_t executions =
      proc ? world->server_log()->executions.load(std::memory_order_acquire)
           : in_process_executions;
  const bool counts_match = executions == ok_calls;
  if (!counts_match) {
    std::fprintf(stderr,
                 "server executed %llu calls, client completed %llu ok\n",
                 static_cast<unsigned long long>(executions),
                 static_cast<unsigned long long>(ok_calls));
  }
  if (bad > 0) {
    std::fprintf(stderr, "%llu calls failed or returned a wrong reply\n",
                 static_cast<unsigned long long>(bad));
  }
  world.reset();  // Stops and reaps the server process.

  // Every call of the run counts here, warm-up and the last one past the
  // window too: `failed` covers only the window.
  const bool correct = counts_match && failed == 0 && bad == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    line += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
            ": {\"value\": " + value +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
