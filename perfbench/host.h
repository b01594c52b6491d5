// Host facts and host-time accounting for the benchmark: the stamp printed
// with every result, CPU time of this process and of a server process,
// peak RSS, and core pinning.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

// steady_clock (CLOCK_MONOTONIC) in ns. The clock is system-wide, so a
// forked server's timestamps compare directly with the client's.
std::int64_t NowNs();

struct HostStamp {
  int nproc = 0;
  std::string cpu_model;
  std::string kernel_release;
  // Wall time of a fixed dependent-multiply loop, measured in this run:
  // lets two results be compared for host speed before their timings are.
  double calibration_ns = 0.0;
};

HostStamp StampHost();

// User+system CPU time of this process (all threads), in ns.
std::int64_t SelfCpuNs();
// User+system CPU time of process `pid` from /proc/<pid>/stat, in ns
// (clock-tick resolution); -1 when it cannot be read.
std::int64_t ProcessCpuNs(int pid);

// Peak resident set of this process, in MiB.
double MaxRssMib();

// Pins the calling thread, or process `pid`, to core `core % nproc`.
void PinThisThread(int core);
void PinProcess(int pid, int core);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
