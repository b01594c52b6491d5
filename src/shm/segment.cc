#include "src/shm/segment.h"

namespace lrpc {

void SharedSegment::Borrow(std::span<std::uint8_t> storage) {
  owned_.clear();
  owned_.shrink_to_fit();
  data_ = storage.data();
  size_ = storage.size();
  borrowed_ = true;
}

void SharedSegment::Adopt() {
  if (!borrowed_) {
    return;
  }
  owned_.assign(data_, data_ + size_);
  data_ = owned_.data();
  borrowed_ = false;
}

void SharedSegment::GrantMapping(DomainId domain, MapRights rights) {
  for (auto& m : mappings_) {
    if (m.domain == domain) {
      m.rights = rights;
      return;
    }
  }
  mappings_.push_back({domain, rights});
}

void SharedSegment::RevokeMapping(DomainId domain) {
  for (auto& m : mappings_) {
    if (m.domain == domain) {
      m.rights = MapRights::kNone;
      return;
    }
  }
}

MapRights SharedSegment::RightsFor(DomainId domain) const {
  for (const auto& m : mappings_) {
    if (m.domain == domain) {
      return m.rights;
    }
  }
  return MapRights::kNone;
}

bool SharedSegment::CanRead(DomainId domain) const {
  const MapRights r = RightsFor(domain);
  return r == MapRights::kRead || r == MapRights::kReadWrite;
}

bool SharedSegment::CanWrite(DomainId domain) const {
  return RightsFor(domain) == MapRights::kReadWrite;
}

Status SharedSegment::Write(DomainId domain, std::size_t offset,
                            const void* data, std::size_t len) {
  if (!CanWrite(domain)) {
    return Status(ErrorCode::kPermissionDenied, "segment not writable by domain");
  }
  if (!InBounds(offset, len)) {
    return Status(ErrorCode::kInvalidArgument, "segment write out of bounds");
  }
  if (len != 0) {  // Zero-length writes may legally pass data == nullptr.
    std::memcpy(data_ + offset, data, len);
  }
  return Status::Ok();
}

Status SharedSegment::Read(DomainId domain, std::size_t offset, void* out,
                           std::size_t len) const {
  if (!CanRead(domain)) {
    return Status(ErrorCode::kPermissionDenied, "segment not readable by domain");
  }
  if (!InBounds(offset, len)) {
    return Status(ErrorCode::kInvalidArgument, "segment read out of bounds");
  }
  if (len != 0) {  // Zero-length reads may legally pass out == nullptr.
    std::memcpy(out, data_ + offset, len);
  }
  return Status::Ok();
}

}  // namespace lrpc
