// Protection domains.
//
// A domain is an address space plus the resources charged to it: threads,
// E-stacks, exported interfaces, bindings. Each domain has its own VM
// context; entering a domain on a processor that has a different context
// loaded requires a context switch (and, on the untagged C-VAX TLB, an
// invalidation) — unless a processor already idling in the context can be
// exchanged for the caller's (Section 3.4).

#ifndef SRC_KERN_DOMAIN_H_
#define SRC_KERN_DOMAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/kern/estack.h"
#include "src/sim/processor.h"

namespace lrpc {

class AStackArena;

enum class DomainState : std::uint8_t {
  kAlive,
  kTerminating,  // Collector is running (Section 5.3).
  kDead,
};

struct DomainConfig {
  std::string name;
  NodeId node = kLocalNode;
  std::size_t estack_size = 32 * 1024;  // "tens of kilobytes".
  int estack_capacity = 16;             // Address-space budget, in E-stacks.
};

class Domain {
 public:
  Domain(DomainId id, VmContextId vm_context, std::uint64_t page_base,
         DomainConfig config)
      : id_(id),
        vm_context_(vm_context),
        page_base_(page_base),
        config_(std::move(config)),
        estacks_(config_.estack_size, config_.estack_capacity) {}

  DomainId id() const { return id_; }
  const std::string& name() const { return config_.name; }
  NodeId node() const { return config_.node; }
  VmContextId vm_context() const { return vm_context_; }

  // Base virtual page number for this domain's pages, used by the TLB model.
  std::uint64_t page_base() const { return page_base_; }

  DomainState state() const { return state_; }
  void set_state(DomainState s) { state_ = s; }
  bool alive() const { return state_ == DomainState::kAlive; }

  EStackPool& estacks() { return estacks_; }
  const EStackPool& estacks() const { return estacks_; }

  void AddThread(ThreadId t) { threads_.push_back(t); }
  const std::vector<ThreadId>& threads() const { return threads_; }

  // Where the kernel carves this domain's server-side A-stack regions: a
  // real shared mapping when a server process stands behind the domain
  // (docs/multiprocess.md), else null and the heap.
  AStackArena* astack_arena() const { return astack_arena_; }
  void set_astack_arena(AStackArena* arena) { astack_arena_ = arena; }

 private:
  DomainId id_;
  VmContextId vm_context_;
  std::uint64_t page_base_;
  DomainConfig config_;
  DomainState state_ = DomainState::kAlive;
  EStackPool estacks_;
  std::vector<ThreadId> threads_;
  AStackArena* astack_arena_ = nullptr;
};

}  // namespace lrpc

#endif  // SRC_KERN_DOMAIN_H_
