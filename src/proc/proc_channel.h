// ProcChannel: the shared-memory call channel between the client process
// and one forked server domain (docs/multiprocess.md).
//
// One channel per server endpoint, placement-new'd at the start of a
// ProcSegment before fork so both sides address the same object; the
// server's A-stack arena follows it in the same mapping. A call carries no
// argument bytes: the client stub marshaled them straight onto an A-stack
// carved from that arena, and the channel names the A-stack by arena offset
// and length (the inline path's register window, at most kLinkageRegsSize
// bytes, rides in the entry itself). The protocol is three monotonic
// sequence words behind futex doorbells:
//
//   call_seq    the client publishes a batch of calls (A-stacks and entries
//               written first, then the release store; the server's acquire
//               load makes them visible).
//   accept_seq  the server bumps it when it dequeues the batch — the word
//               that splits peer death into "before accept" (kPeerDied,
//               retryable: no handler ran) and "after accept" (kCallFailed:
//               a handler may have run).
//   return_seq  the server publishes the results (written in place on the
//               A-stacks first, release store, futex wake; the client's
//               acquire read pairs).
//
// One batch is outstanding per channel at a time (the parent serializes),
// so the plain header fields need no ordering of their own: they are
// written strictly before the sequence store that publishes them.

#ifndef SRC_PROC_PROC_CHANNEL_H_
#define SRC_PROC_PROC_CHANNEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "src/common/status.h"
#include "src/shm/astack.h"

namespace lrpc {

// Largest A-stack the process backend routes. Only A-stacks up to this
// size are carved from a server's arena; calls on larger ones (and calls
// that spill out-of-band) execute in-process instead — the same "uncommon
// case falls off the fast path" shape as Section 5.2. A batch entry routes
// the same windows as a single call.
inline constexpr std::size_t kProcPayloadBytes = 4096;
inline constexpr std::size_t kProcBatchEntryBytes = kProcPayloadBytes;

// Bytes of each server's A-stack arena, mapped right after its channel.
// The mapping is zero-filled and its pages are touched only as A-stacks
// are used.
inline constexpr std::size_t kProcArenaBytes = std::size_t{1} << 20;

// Deliberate-death modes for the chaos schedules (FaultKind::
// kPeerProcessDeath): the server process SIGKILLs itself at the named
// protocol point. Plain ints, not the KillPhase enum: the channel is shared
// memory and keeps a stable ABI of scalar words.
inline constexpr std::uint32_t kProcDieNone = 0;
inline constexpr std::uint32_t kProcDieInServerBody = 1;
inline constexpr std::uint32_t kProcDieAfterReturn = 2;

// Every crossing is a batch (docs/async.md): a synchronous call is a batch
// of one, and an AsyncRing's flush leg ships up to kProcBatchMax calls
// behind ONE call_seq ring and ONE return_seq ring — the doorbell wake pair
// is amortized across the batch. Each entry has its own `done` word, so a
// mid-batch death can be triaged call by call (finished entries keep their
// real results).
inline constexpr std::uint32_t kProcBatchMax = 16;  // == AsyncRing::kMaxDepth.

struct ProcBatchEntry {
  std::int32_t procedure = -1;
  std::uint32_t inline_window = 0;  // 1: `regs` holds the window.
  // The call's A-stack: an offset into the server's arena and a length.
  // Both are hostile input to the server, which bounds them before use.
  std::uint64_t window_offset = 0;
  std::uint64_t window_len = 0;
  std::int32_t handler_code = 0;  // ErrorCode of the handler's own Status.
  // The server's release store publishes this entry's results; the client
  // reads it (acquire) after a peer death to learn which entries finished
  // before the corpse.
  std::atomic<std::uint32_t> done{0};
  std::uint8_t regs[kLinkageRegsSize] = {};  // The inline register window.
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
  // Graceful-shutdown flag, published by advancing call_seq after it
  // (ProcHost::RingStop); the server reads it once its wait sees the word
  // move, before accepting.
  std::atomic<std::uint32_t> shutdown{0};

  // --- Batch header, written by the client before the call_seq store. ---
  std::uint32_t die_mode = kProcDieNone;
  std::int32_t client_domain = -1;
  std::int32_t caller_thread = -1;
  std::uint32_t batch_count = 0;  // Serve batch[0..batch_count).
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
