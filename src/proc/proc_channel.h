// ProcChannel: the shared-memory call channel between the client process
// and one forked server domain (docs/multiprocess.md).
//
// One channel per server endpoint, placement-new'd into a ProcSegment
// before fork so both sides address the same object. The protocol is three
// monotonic sequence words behind futex doorbells:
//
//   call_seq    the client publishes a call (payload + header written
//               first, then the release store; the server's acquire load
//               makes the payload visible).
//   accept_seq  the server bumps it when it dequeues the call — the word
//               that splits peer death into "before accept" (kPeerDied,
//               retryable: the handler never ran) and "after accept"
//               (kCallFailed: the handler may have run).
//   return_seq  the server publishes the results (payload written first,
//               release store, futex wake; the client's acquire read pairs).
//
// One call is outstanding per channel at a time (the parent serializes), so
// the plain header fields need no ordering of their own: they are written
// strictly before the sequence store that publishes them.

#ifndef SRC_PROC_PROC_CHANNEL_H_
#define SRC_PROC_PROC_CHANNEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "src/common/status.h"

namespace lrpc {

// Largest argument/result window the channel carries. Calls that need more
// (out-of-band segments, oversized A-stacks) execute in-process instead —
// the same "uncommon case falls off the fast path" shape as Section 5.2.
inline constexpr std::size_t kProcPayloadBytes = 4096;

// Deliberate-death modes for the chaos schedules (FaultKind::
// kPeerProcessDeath): the server process SIGKILLs itself at the named
// protocol point. Plain ints, not the KillPhase enum: the channel is shared
// memory and keeps a stable ABI of scalar words.
inline constexpr std::uint32_t kProcDieNone = 0;
inline constexpr std::uint32_t kProcDieInServerBody = 1;
inline constexpr std::uint32_t kProcDieAfterReturn = 2;

// Batched calls (docs/async.md): an AsyncRing's flush leg ships up to
// kProcBatchMax calls behind ONE call_seq ring and ONE return_seq ring —
// the doorbell wake pair is amortized across the batch. Each entry carries
// its own window slice plus a per-entry `done` word, so a mid-batch death
// can be triaged call by call (finished entries keep their real results).
inline constexpr std::uint32_t kProcBatchMax = 16;  // == AsyncRing::kMaxDepth.
inline constexpr std::size_t kProcBatchEntryBytes = 1024;

struct ProcBatchEntry {
  std::int32_t procedure = -1;
  std::uint32_t inline_window = 0;  // 1: payload is the register window.
  std::uint32_t payload_len = 0;
  std::int32_t handler_code = 0;  // ErrorCode of the handler's own Status.
  // The server's release store publishes this entry's result bytes; the
  // client reads it (acquire) after a peer death to learn which entries
  // finished before the corpse.
  std::atomic<std::uint32_t> done{0};
  std::uint8_t payload[kProcBatchEntryBytes] = {};
};

// The handler status a server process wrote into a channel word, decoded
// on the client side. The word is hostile input: a value outside the
// ErrorCode range — [kOk, kAsyncQueueFull], the last enumerator — is a
// protocol violation and reads as kCallFailed, never as a narrowed code
// (256 would otherwise narrow to kOk).
inline Status DecodeHandlerCode(std::int32_t code) {
  if (code < 0 || code > static_cast<std::int32_t>(ErrorCode::kAsyncQueueFull)) {
    return Status(ErrorCode::kCallFailed,
                  "server process wrote an out-of-range handler status");
  }
  return Status(static_cast<ErrorCode>(code));
}

struct ProcChannel {
  std::atomic<std::uint32_t> call_seq{0};
  std::atomic<std::uint32_t> accept_seq{0};
  std::atomic<std::uint32_t> return_seq{0};
  // Sleepers counts for the doorbells' wake elision (FutexDoorbell): a
  // ringer skips the futex syscall while its partner is still polling.
  std::atomic<std::uint32_t> call_sleepers{0};
  std::atomic<std::uint32_t> return_sleepers{0};
  // Graceful-shutdown flag, polled by the server between calls.
  std::atomic<std::uint32_t> shutdown{0};

  // --- Per-call header, written by the client before the call_seq store. ---
  std::uint32_t die_mode = kProcDieNone;
  std::int32_t procedure = -1;
  std::int32_t client_domain = -1;
  std::int32_t caller_thread = -1;
  std::uint32_t inline_window = 0;  // 1: payload is the register window.
  std::uint32_t payload_len = 0;
  // >0: batch mode — serve `batch[0..batch_count)` and ignore the single-
  // call fields above (except die_mode/client_domain/caller_thread).
  std::uint32_t batch_count = 0;

  // --- Per-call result, written by the server before the return_seq store. ---
  std::int32_t handler_code = 0;  // ErrorCode of the handler's own Status.

  std::uint8_t payload[kProcPayloadBytes] = {};
  ProcBatchEntry batch[kProcBatchMax];
};

// The doorbells must be plain lock-free words for the cross-process futexes
// to mean anything.
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "proc channel doorbells must be address-free");
static_assert(std::is_trivially_destructible_v<ProcChannel>,
              "the channel lives in a shared mapping and is never destroyed");

// The handshake the server process sends over the UNIX-domain control
// socket right after fork: it announces the export it serves, and the
// parent admits the endpoint only after checking the claim against the
// nameserver's registration (binding/import over the socket,
// docs/multiprocess.md).
inline constexpr std::uint32_t kProcHelloMagic = 0x4c525043;  // 'LRPC'
inline constexpr std::size_t kProcHelloNameBytes = 64;

struct ProcHello {
  std::uint32_t magic = kProcHelloMagic;
  std::int32_t domain = -1;
  std::int32_t pid = -1;
  std::uint32_t procedures = 0;
  char name[kProcHelloNameBytes] = {};
};

static_assert(std::is_trivially_copyable_v<ProcHello>,
              "the hello crosses a socket as raw bytes");

}  // namespace lrpc

#endif  // SRC_PROC_PROC_CHANNEL_H_
