// E-stacks (execution stacks) and their per-domain pool.
//
// When a client thread crosses into a server domain it must run on a stack
// that is private to that domain — otherwise the server's execution state
// would be exposed to, or corruptible by, the client (Section 3.2). E-stacks
// are large (tens of kilobytes) so the server's address space would be
// exhausted if one were statically tied to every A-stack of every binding;
// instead LRPC associates E-stacks with A-stacks lazily at call time and
// reclaims associations not recently used when the supply runs low.

#ifndef SRC_KERN_ESTACK_H_
#define SRC_KERN_ESTACK_H_

#include <cstdint>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"

namespace lrpc {

struct EStack {
  int id = -1;
  std::size_t size = 0;
  bool associated = false;   // Currently associated with some A-stack.
};

// The pool of E-stacks belonging to one server domain. The pool's capacity
// models the domain's address-space budget: Allocate fails once the budget
// is spent, at which point the kernel reclaims stale associations
// (Section 3.2: "the kernel reclaims those associated with A-stacks that
// have not been recently used").
class EStackPool {
 public:
  EStackPool(std::size_t estack_size, int capacity)
      : estack_size_(estack_size), capacity_(capacity) {}

  std::size_t estack_size() const { return estack_size_; }
  int capacity() const { return capacity_; }
  int allocated() const { return static_cast<int>(stacks_.size()); }

  // An already-allocated E-stack with no current A-stack association, or
  // nullptr.
  EStack* FindUnassociated();

  // Allocates a fresh E-stack out of the domain's budget.
  Result<int> Allocate();

  EStack& stack(int id) { return stacks_[static_cast<std::size_t>(id)]; }
  const EStack& stack(int id) const { return stacks_[static_cast<std::size_t>(id)]; }

  // Marks `id` associated (the A-stack side records the use time).
  void MarkAssociated(int id);
  // Breaks the association (the A-stack side is the caller's to clear).
  void MarkUnassociated(int id);

 private:
  std::size_t estack_size_;
  int capacity_;
  std::vector<EStack> stacks_;
};

}  // namespace lrpc

#endif  // SRC_KERN_ESTACK_H_
