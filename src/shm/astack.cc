#include "src/shm/astack.h"

#include <iterator>

#include "src/common/check.h"

namespace lrpc {

namespace {

// Arena carving granule: a region never shares a cache line with another.
constexpr std::size_t kArenaAlign = kCacheLineSize;

std::size_t ArenaRound(std::size_t bytes) {
  return (bytes + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
}

}  // namespace

AStackArena::AStackArena(std::span<std::uint8_t> storage,
                         std::size_t max_astack_size)
    : storage_(storage), max_astack_size_(max_astack_size) {
  if (!storage.empty()) {
    free_.emplace(0, storage.size());
  }
}

AStackArena::~AStackArena() {
  for (AStackRegion* region : tenants_) {
    region->segment_.Adopt();
    region->arena_ = nullptr;
  }
}

std::uint8_t* AStackArena::Carve(std::size_t bytes) {
  const std::size_t need = ArenaRound(bytes);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const auto [offset, len] = *it;
    if (len < need) {
      continue;
    }
    free_.erase(it);
    if (len > need) {
      free_.emplace(offset + need, len - need);
    }
    return storage_.data() + offset;
  }
  return nullptr;
}

void AStackArena::Release(AStackRegion* region) {
  std::erase(tenants_, region);
  std::size_t offset = static_cast<std::size_t>(
      region->segment_.DataUnchecked() - storage_.data());
  std::size_t len = ArenaRound(region->segment_.size());
  // Coalesce with the free runs on either side.
  auto next = free_.lower_bound(offset);
  if (next != free_.end() && offset + len == next->first) {
    len += next->second;
    next = free_.erase(next);
  }
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      offset = prev->first;
      len += prev->second;
      free_.erase(prev);
    }
  }
  free_.emplace(offset, len);
}

AStackRegion::AStackRegion(DomainId client, DomainId server,
                           std::size_t astack_size, int count, bool secondary)
    : client_(client),
      server_(server),
      astack_size_(astack_size),
      count_(count),
      secondary_(secondary),
      segment_(astack_size * static_cast<std::size_t>(count)) {
  Init();
}

AStackRegion::AStackRegion(DomainId client, DomainId server,
                           std::size_t astack_size, int count, bool secondary,
                           std::span<std::uint8_t> storage)
    : client_(client),
      server_(server),
      astack_size_(astack_size),
      count_(count),
      secondary_(secondary),
      segment_(storage) {
  Init();
}

void AStackRegion::Init() {
  LRPC_CHECK(astack_size_ > 0);
  LRPC_CHECK(count_ > 0);
  linkages_.resize(static_cast<std::size_t>(count_));
  slot_state_.assign(static_cast<std::size_t>(count_), AStackSlotState{});
  // Pair-wise mapping: read-write in exactly the two party domains.
  segment_.GrantMapping(client_, MapRights::kReadWrite);
  segment_.GrantMapping(server_, MapRights::kReadWrite);
}

std::unique_ptr<AStackRegion> AStackRegion::InArena(
    AStackArena& arena, DomainId client, DomainId server,
    std::size_t astack_size, int count, bool secondary) {
  const std::size_t bytes = astack_size * static_cast<std::size_t>(count);
  std::uint8_t* storage = arena.Carve(bytes);
  if (storage == nullptr) {
    return nullptr;
  }
  auto region = std::make_unique<AStackRegion>(
      client, server, astack_size, count, secondary,
      std::span<std::uint8_t>(storage, bytes));
  region->arena_ = &arena;
  arena.tenants_.push_back(region.get());
  return region;
}

AStackRegion::~AStackRegion() {
  if (arena_ != nullptr) {
    arena_->Release(this);
  }
}

Result<int> AStackRegion::ValidateOffset(std::size_t offset) const {
  // Range check plus alignment to an A-stack base; this is the "simple
  // range check" the contiguous layout buys (Section 5.2).
  if (offset >= astack_size_ * static_cast<std::size_t>(count_)) {
    return Status(ErrorCode::kInvalidAStack, "offset outside region");
  }
  if (offset % astack_size_ != 0) {
    return Status(ErrorCode::kInvalidAStack, "offset not an A-stack base");
  }
  return static_cast<int>(offset / astack_size_);
}

void AStackRegion::InvalidateAllLinkages() {
  for (auto& linkage : linkages_) {
    linkage.valid = false;
  }
}

void AStackQueue::Push(Processor& cpu, AStackRef ref,
                       SimDuration charge_while_held) {
  LRPC_DCHECK(ref.valid());
  SimLockGuard guard(lock_, cpu);
  if (charge_while_held > 0) {
    cpu.Charge(CostCategory::kClientStub, charge_while_held);
  }
  stacks_.push_back(ref);
}

Result<AStackRef> AStackQueue::Pop(Processor& cpu,
                                   SimDuration charge_while_held) {
  SimLockGuard guard(lock_, cpu);
  if (charge_while_held > 0) {
    cpu.Charge(CostCategory::kClientStub, charge_while_held);
  }
  if (stacks_.empty()) {
    return Status(ErrorCode::kAStacksExhausted);
  }
  const AStackRef ref = stacks_.back();
  stacks_.pop_back();
  return ref;
}

}  // namespace lrpc
