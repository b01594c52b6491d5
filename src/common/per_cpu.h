// Per-processor statistics blocks (docs/fast_path.md layout audit).
//
// A counter that every processor bumps on every call is a shared write:
// its cache line migrates to whichever core bumped it last, and on a
// four-core host that alone keeps throughput from scaling (the paper's
// Section 3.4 argument, turned on our own bookkeeping). Here each
// processor owns one line-aligned block of counters. Only the host thread
// driving processor p writes block p — the real-thread engine runs one
// thread per processor — so a bump is a relaxed load and store on a line
// no rival writes, and readers sum the blocks.
//
// Callers that run on no processor (an index outside [0, processors), such
// as tests and tools validating from plain host threads) share one extra
// block and bump it with fetch_add, so their counts stay exact however many
// of them run at once.

#ifndef SRC_COMMON_PER_CPU_H_
#define SRC_COMMON_PER_CPU_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/cacheline.h"

namespace lrpc {

// The processor index of a caller that runs on no processor.
inline constexpr int kNoProcessor = -1;

template <std::size_t kCounters>
class PerCpuCounters {
 public:
  explicit PerCpuCounters(int processors)
      : processors_(processors > 0 ? processors : 0),
        blocks_(std::make_unique<Block[]>(
            static_cast<std::size_t>(processors_) + 1)) {}

  // Adds `n` to counter `counter` of processor `cpu`'s block. The caller
  // must be the only thread driving `cpu`; any other index lands in the
  // shared block.
  void Add(int cpu, std::size_t counter, std::uint64_t n = 1) {
    if (cpu >= 0 && cpu < processors_) {
      std::atomic<std::uint64_t>& word =
          blocks_[static_cast<std::size_t>(cpu)].counts[counter];
      // LRPC_MO(per-cpu-counter)
      word.store(word.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);  // LRPC_MO(per-cpu-counter)
      return;
    }
    blocks_[static_cast<std::size_t>(processors_)].counts[counter].fetch_add(
        n, std::memory_order_relaxed);  // LRPC_MO(stat-counter)
  }

  // The counter summed over every block (approximate while writers run).
  std::uint64_t Sum(std::size_t counter) const {
    std::uint64_t total = 0;
    for (int b = 0; b <= processors_; ++b) {
      total += blocks_[static_cast<std::size_t>(b)].counts[counter].load(
          std::memory_order_relaxed);  // LRPC_MO(per-cpu-counter)
    }
    return total;
  }

 private:
  struct LRPC_CACHELINE_ALIGNED Block {
    std::atomic<std::uint64_t> counts[kCounters] = {};
  };
  static_assert(sizeof(Block) == kCacheLineSize,
                "per-cpu counter layout audit: one line per processor");

  int processors_;
  std::unique_ptr<Block[]> blocks_;
};

}  // namespace lrpc

#endif  // SRC_COMMON_PER_CPU_H_
