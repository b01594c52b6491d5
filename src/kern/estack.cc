#include "src/kern/estack.h"

#include "src/common/fast_path.h"

namespace lrpc {

// E-stack claim and release run on every call once the A-stack/E-stack
// association misses (Section 3.2); only the bind-time pool growth below
// carries an explicit allowance (rule lrpc-fast-path).
LRPC_FAST_PATH_BEGIN("estack claim/release");

EStack* EStackPool::FindUnassociated() {
  for (auto& s : stacks_) {
    if (!s.associated) {
      return &s;
    }
  }
  return nullptr;
}

Result<int> EStackPool::Allocate() {
  if (allocated() >= capacity_) {
    return Status(ErrorCode::kEStackExhausted, "E-stack budget exhausted");
  }
  EStack s;
  s.id = allocated();
  s.size = estack_size_;
  LRPC_FAST_PATH_ALLOW("pool growth is bounded by the domain's E-stack budget");
  stacks_.push_back(s);
  return s.id;
}

void EStackPool::MarkAssociated(int id) {
  stacks_[static_cast<std::size_t>(id)].associated = true;
}

void EStackPool::MarkUnassociated(int id) {
  stacks_[static_cast<std::size_t>(id)].associated = false;
}

LRPC_FAST_PATH_END("estack claim/release");

}  // namespace lrpc
