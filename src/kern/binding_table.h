// The kernel's Binding Object table.
//
// A Binding Object is the client's key for a server interface; it is
// presented to the kernel on every call and the kernel can detect a forged
// one (Section 3.1). Here a binding is a table index plus a random nonce;
// validation checks index, nonce, holder domain and the revoked bit. When a
// domain terminates, every Binding Object associated with it — as client or
// server — is revoked, stopping both out-calls and in-calls (Section 5.3).
//
// A binding whose server lives on another node carries the remote bit; the
// first instruction of the client stub tests it and branches to the
// conventional network-RPC path (Section 5.1).

#ifndef SRC_KERN_BINDING_TABLE_H_
#define SRC_KERN_BINDING_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/kern/sharded_binding_table.h"
#include "src/shm/astack.h"
#include "src/sim/fault_injector.h"

namespace lrpc {

struct BindingRecord {
  BindingId id = kNoBinding;
  std::uint64_t nonce = 0;
  DomainId client = kNoDomain;
  DomainId server = kNoDomain;
  InterfaceId interface_id = kNoInterface;
  bool revoked = false;
  bool remote = false;
  // Opaque pointer to the interface/PDL this binding grants access to; owned
  // by the LRPC runtime layer.
  const void* pdl = nullptr;
  // A-stack regions allocated for this binding (owned here so the
  // termination collector can invalidate their linkages).
  std::vector<std::unique_ptr<AStackRegion>> regions;
};

// The client-visible capability: the id plus the nonce. The kernel rejects
// a presented object whose nonce does not match the table's.
struct BindingObject {
  BindingId id = kNoBinding;
  std::uint64_t nonce = 0;
  bool remote = false;

  bool valid() const { return id != kNoBinding; }
};

// Every engine validates through the table's seqlock index (the
// lock-free read docs/concurrency.md describes, behind a per-thread
// validation cache); the records themselves stay single-writer and never
// move.
class BindingTable {
 public:
  // `processors` sizes the index's per-processor counter blocks (the
  // kernel passes its machine's processor count).
  explicit BindingTable(std::uint64_t seed, int processors = 0)
      : rng_(seed), index_(ShardedBindingTable::Options(), processors) {}

  // Creates the record and publishes its index entry.
  BindingRecord& Create(DomainId client, DomainId server,
                        InterfaceId interface_id, const void* pdl, bool remote);

  // Call-time validation: detects forged, revoked, and stolen bindings,
  // through the calling thread's binding cache. The kBindingRevocation
  // injection point lives here: a fault revokes the binding at the instant
  // it would otherwise have validated. `cpu` is the caller's
  // Processor::id(); it indexes the counters only.
  Result<BindingRecord*> Validate(const BindingObject& object, DomainId caller,
                                  int cpu = kNoProcessor) {
    Result<BindingRecord*> validated =
        index_.ValidateCached(object, caller, cpu);
    if (validated.ok() &&
        FaultPointFires(injector_, FaultKind::kBindingRevocation)) {
      Revoke(object.id);
      return Status(ErrorCode::kRevokedBinding, "fault injection: revoked");
    }
    return validated;
  }

  // The same checks with no side effects — no cache fill, no counters, no
  // fault injection — on the index the call leg reads; the invariant
  // checker uses it to prove revoked nonces never validate.
  Status CheckValidate(const BindingObject& object, DomainId caller) const {
    return index_.CheckValidate(object, caller).status();
  }

  // Lookup without the capability check (kernel-internal).
  BindingRecord* Find(BindingId id);

  // Revokes one binding: the record and its index entry together.
  // Thread-safe against concurrent validation.
  void Revoke(BindingId id);

  // Revokes every binding in which `domain` participates; returns the
  // affected records so the collector can invalidate their linkages.
  std::vector<BindingRecord*> RevokeForDomain(DomainId domain);

  // All live (non-revoked) bindings where `domain` is the client.
  std::vector<BindingRecord*> ClientBindingsOf(DomainId domain);

  std::size_t size() const { return records_.size(); }
  const BindingRecord& record_at(std::size_t index) const {
    return *records_[index];
  }

  // Installed by Kernel::set_fault_injector; null means no injection.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Selects the index's single-lock baseline (false) or its lock-free read;
  // only while no other thread uses the table.
  void set_lock_free(bool lock_free) { index_.set_lock_free(lock_free); }

  // The index's counters and shard balance (docs/concurrency.md).
  std::uint64_t validations() const { return index_.validations(); }
  std::uint64_t cache_hits() const { return index_.cache_hits(); }
  std::uint64_t seq_retries() const { return index_.seq_retries(); }
  ShardedBindingTable::Occupancy MeasureOccupancy() const {
    return index_.MeasureOccupancy();
  }

 private:
  void RevokeRecord(BindingRecord& record);

  Rng rng_;
  FaultInjector* injector_ = nullptr;
  std::vector<std::unique_ptr<BindingRecord>> records_;
  ShardedBindingTable index_;
};

}  // namespace lrpc

#endif  // SRC_KERN_BINDING_TABLE_H_
