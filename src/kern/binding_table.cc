#include "src/kern/binding_table.h"

#include "src/common/check.h"

namespace lrpc {

BindingRecord& BindingTable::Create(DomainId client, DomainId server,
                                    InterfaceId interface_id, const void* pdl,
                                    bool remote) {
  auto record = std::make_unique<BindingRecord>();
  record->id = static_cast<BindingId>(records_.size());
  // A zero nonce would make a zero-initialized forgery valid; draw again.
  do {
    record->nonce = rng_.Next();
  } while (record->nonce == 0);
  record->client = client;
  record->server = server;
  record->interface_id = interface_id;
  record->pdl = pdl;
  record->remote = remote;
  LRPC_CHECK_OK(index_.AddEntry(record->id, record->nonce, client,
                                /*revoked=*/false, record.get()));
  records_.push_back(std::move(record));
  return *records_.back();
}

BindingRecord* BindingTable::Find(BindingId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= records_.size()) {
    return nullptr;
  }
  return records_[static_cast<std::size_t>(id)].get();
}

void BindingTable::Revoke(BindingId id) {
  if (BindingRecord* record = Find(id)) {
    RevokeRecord(*record);
  }
}

void BindingTable::RevokeRecord(BindingRecord& record) {
  record.revoked = true;
  index_.Revoke(record.id);
}

std::vector<BindingRecord*> BindingTable::RevokeForDomain(DomainId domain) {
  std::vector<BindingRecord*> affected;
  for (auto& record : records_) {
    if (record->revoked) {
      continue;
    }
    if (record->client == domain || record->server == domain) {
      RevokeRecord(*record);
      affected.push_back(record.get());
    }
  }
  return affected;
}

std::vector<BindingRecord*> BindingTable::ClientBindingsOf(DomainId domain) {
  std::vector<BindingRecord*> result;
  for (auto& record : records_) {
    if (!record->revoked && record->client == domain) {
      result.push_back(record.get());
    }
  }
  return result;
}

}  // namespace lrpc
