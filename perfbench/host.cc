#include "perfbench/host.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') {
          ++begin;
        }
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

double CalibrationNs() {
  // A fixed chain of dependent multiplies: its time tracks the core's
  // clock and load, not the memory system. Best of three.
  constexpr int kIterations = 1 << 24;
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(round);
    const std::int64_t start = NowNs();
    for (int i = 0; i < kIterations; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    sink = x;
    (void)sink;
    const auto elapsed = static_cast<double>(NowNs() - start);
    if (round == 0 || elapsed < best) {
      best = elapsed;
    }
  }
  return best;
}

cpu_set_t CoreSet(int core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % Nproc(), &set);
  return set;
}

}  // namespace

HostStamp StampHost() {
  HostStamp stamp;
  stamp.nproc = Nproc();
  stamp.cpu_model = CpuModel();
  struct utsname names;
  stamp.kernel_release = uname(&names) == 0 ? names.release : "unknown";
  stamp.calibration_ns = CalibrationNs();
  return stamp;
}

std::int64_t SelfCpuNs() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  const auto ns = [](const struct timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

std::int64_t ProcessCpuNs(int pid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", pid);
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name (field 2) may hold spaces; fields restart after ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) {
    return -1;
  }
  std::istringstream fields(text.substr(close + 1));
  std::string field;
  long long utime = -1;
  long long stime = -1;
  // Field 3 (state) is the first after ')'; utime and stime are 14 and 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) {
      utime = std::atoll(field.c_str());
    } else if (index == 15) {
      stime = std::atoll(field.c_str());
    }
  }
  if (utime < 0 || stime < 0) {
    return -1;
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1000000000LL / (ticks > 0 ? ticks : 100));
}

double MaxRssMib() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void PinThisThread(int core) {
  cpu_set_t set = CoreSet(core);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void PinProcess(int pid, int core) {
  cpu_set_t set = CoreSet(core);
  (void)sched_setaffinity(pid, sizeof(set), &set);
}

}  // namespace perfbench
