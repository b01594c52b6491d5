// SharedSegment: a region of memory with explicit per-domain mapping rights.
//
// LRPC's data-transfer story rests on pair-wise shared argument stacks:
// the kernel maps each A-stack read-write into exactly the client and server
// domains of one binding, giving a private channel that third parties cannot
// touch (Section 3.5). Hardware enforces this on the Firefly; here a real
// byte buffer plus an access-rights check on every domain-mediated access
// reproduces the same guarantees observably: tests assert that a third
// domain's access fails with kPermissionDenied.
//
// The kernel itself accesses segments without rights checks (it maps
// everything), via the *Unchecked accessors.
//
// A segment either owns its bytes (a heap buffer) or borrows them from
// memory someone else keeps alive: the process backend's A-stack arena,
// which lives in a mapping the server process shares (docs/multiprocess.md).

#ifndef SRC_SHM_SEGMENT_H_
#define SRC_SHM_SEGMENT_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"

namespace lrpc {

enum class MapRights : std::uint8_t {
  kNone = 0,
  kRead = 1,
  kReadWrite = 3,
};

class SharedSegment {
 public:
  explicit SharedSegment(std::size_t size)
      : owned_(size, 0), data_(owned_.data()), size_(size) {}
  // Borrows `storage`, which must outlive the segment or be given up first
  // with Adopt().
  explicit SharedSegment(std::span<std::uint8_t> storage)
      : data_(storage.data()), size_(storage.size()), borrowed_(true) {}

  // `data_` points into `owned_` or into borrowed storage: no copies.
  SharedSegment(const SharedSegment&) = delete;
  SharedSegment& operator=(const SharedSegment&) = delete;

  std::size_t size() const { return size_; }

  // Re-points the segment at other borrowed storage, dropping any bytes it
  // owned (the server process's reusable view of one A-stack).
  void Borrow(std::span<std::uint8_t> storage);
  // Copies the borrowed bytes into a buffer the segment owns, so the
  // borrowed storage may go away.
  void Adopt();

  // --- Mapping management (kernel-only operations). ---
  void GrantMapping(DomainId domain, MapRights rights);
  void RevokeMapping(DomainId domain);
  MapRights RightsFor(DomainId domain) const;
  bool CanRead(DomainId domain) const;
  bool CanWrite(DomainId domain) const;

  // --- Domain-mediated access (rights-checked). ---
  Status Write(DomainId domain, std::size_t offset, const void* data,
               std::size_t len);
  Status Read(DomainId domain, std::size_t offset, void* out,
              std::size_t len) const;

  // Typed helpers for small scalar values.
  template <typename T>
  Status WriteValue(DomainId domain, std::size_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Write(domain, offset, &value, sizeof(T));
  }
  template <typename T>
  Status ReadValue(DomainId domain, std::size_t offset, T* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return Read(domain, offset, out, sizeof(T));
  }

  // --- Kernel access (no rights check; bounds still enforced). ---
  std::uint8_t* DataUnchecked() { return data_; }
  const std::uint8_t* DataUnchecked() const { return data_; }

 private:
  struct Mapping {
    DomainId domain;
    MapRights rights;
  };

  bool InBounds(std::size_t offset, std::size_t len) const {
    return offset <= size_ && len <= size_ - offset;
  }

  std::vector<std::uint8_t> owned_;
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool borrowed_ = false;
  // Small linear map: a segment is mapped into at most a handful of domains.
  std::vector<Mapping> mappings_;
};

}  // namespace lrpc

#endif  // SRC_SHM_SEGMENT_H_
