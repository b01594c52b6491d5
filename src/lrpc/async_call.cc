// The async call path (docs/async.md): a ring of pending calls whose
// Submit is the runtime's client stub (LrpcRuntime::StubCall) into a slot
// and whose Flush is the runtime's kernel leg (LrpcRuntime::KernelLeg)
// over every pending slot — the same code a synchronous call runs, which
// is a leg of one. The ring itself owns only its tokens, the SPSC
// completion ring and the callbacks.

#include "src/lrpc/async_call.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/fast_path.h"

namespace lrpc {

AsyncRing::AsyncRing(LrpcRuntime& runtime, ClientBinding& binding,
                     ThreadId thread, int depth)
    : runtime_(runtime),
      binding_(binding),
      thread_(thread),
      depth_(depth < 1 ? 1 : (depth > kMaxDepth ? kMaxDepth : depth)) {
  calls_.resize(static_cast<std::size_t>(depth_));
  slots_.resize(static_cast<std::size_t>(depth_));
  for (Slot& slot : slots_) {
    // Reserve the per-slot vector up front so the submit leg never grows a
    // container (the fast-path purity discipline, docs/fast_path.md).
    slot.rets.reserve(8);
  }
  comp_.resize(static_cast<std::size_t>(depth_));
}

std::uint32_t AsyncRing::Unreaped() const {
  return tail_mirror_ - comp_head_.load(std::memory_order_acquire);
}

bool AsyncRing::full() const {
  return submit_count_ + static_cast<int>(Unreaped()) >= depth_;
}

const AsyncCompletion* AsyncRing::Find(CallToken token) const {
  for (const AsyncCompletion& c : results_) {
    if (c.token == token) {
      return &c;
    }
  }
  return nullptr;
}

// --- The submission and flush legs: thin wrappers over the runtime's
// fast path, under the same purity rules (lrpc_lint, rule lrpc-fast-path):
// no allocation, no logging, no lock acquisition until the matching END. ---
LRPC_FAST_PATH_BEGIN("async submit/flush");

void AsyncRing::PublishCompletion(Slot& slot,
                                  const LrpcRuntime::PendingCall& call) {
  CompCell& cell = comp_[tail_mirror_ % static_cast<std::uint32_t>(depth_)];
  cell.value.token = slot.token;
  cell.value.procedure = call.procedure;
  cell.value.status = call.status;
  cell.value.stats = call.stats;
  cell.callback = std::move(slot.callback);
  slot.callback = nullptr;
  ++tail_mirror_;
  // The release store pairs with Reap's acquire load of comp_tail_: the
  // cell writes above are visible before the new tail is. Never full: the
  // Submit gate bounds unreaped completions at depth_, the ring's size.
  comp_tail_.store(tail_mirror_, std::memory_order_release);
  runtime_.kernel_.NotifyEvent(KernelEventKind::kAsyncCompleted);
}

Result<CallToken> AsyncRing::Submit(Processor& cpu, int procedure,
                                    std::span<const CallArg> args,
                                    std::span<const CallRet> rets,
                                    AsyncCallback callback) {
  if (dead_) {
    return Status(ErrorCode::kNoSuchThread, "the ring's thread died");
  }
  if (full()) {
    return Status(ErrorCode::kAsyncQueueFull,
                  "reap completions before submitting more");
  }
  // Copy A happens here: the caller's argument bytes may go out of scope
  // before the flush, so the A-stack window is the call's storage from now
  // on. The CallRet descriptors are kept in the slot for the copy-out.
  const auto i = static_cast<std::size_t>(submit_count_);
  Slot& slot = slots_[i];
  slot.rets.assign(rets.begin(), rets.end());
  LrpcRuntime::PendingCall& call = calls_[i];
  call = {.procedure = procedure, .rets = slot.rets};
  const Status stub = runtime_.StubCall(cpu, thread_, binding_, args, call);
  if (!stub.ok()) {
    return stub;
  }
  // The claim now spans the submit/flush gap: register it with the thread
  // (invariant I5) until the kernel leg pushes it.
  runtime_.kernel_.FindThread(thread_)->RegisterAsyncPending(call.astack);
  slot.token = ++next_token_;
  slot.callback = std::move(callback);
  ++submit_count_;
  runtime_.kernel_.NotifyEvent(KernelEventKind::kAsyncSubmitted);
  return slot.token;
}

void AsyncRing::Flush(Processor& cpu) {
  if (submit_count_ == 0) {
    return;
  }
  const std::span<LrpcRuntime::PendingCall> pending{
      calls_.data(), static_cast<std::size_t>(submit_count_)};
  if (!runtime_.KernelLeg(cpu, thread_, binding_, pending, call_deadline_)) {
    dead_ = true;
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    PublishCompletion(slots_[i], pending[i]);
  }
  submit_count_ = 0;
}

LRPC_FAST_PATH_END("async submit/flush");

Result<CallFuture> AsyncRing::SubmitFuture(Processor& cpu, int procedure,
                                           std::span<const CallArg> args,
                                           std::span<const CallRet> rets) {
  Result<CallToken> token = Submit(cpu, procedure, args, rets);
  if (!token.ok()) {
    return token.status();
  }
  return CallFuture(this, *token);
}

int AsyncRing::Reap() {
  const std::uint32_t tail = comp_tail_.load(std::memory_order_acquire);
  int consumed = 0;
  while (head_mirror_ != tail) {
    CompCell& cell = comp_[head_mirror_ % static_cast<std::uint32_t>(depth_)];
    const AsyncCompletion value = cell.value;
    AsyncCallback callback = std::move(cell.callback);
    cell.callback = nullptr;
    ++head_mirror_;
    // Frees the cell for the producer; pairs with Submit's acquire load.
    comp_head_.store(head_mirror_, std::memory_order_release);
    if (callback) {
      callback(value);
    } else {
      results_.push_back(value);
    }
    ++consumed;
  }
  return consumed;
}

void AsyncRing::Drain(Processor& cpu) {
  Flush(cpu);
  Reap();
}

bool CallFuture::Poll() {
  LRPC_CHECK(ring_ != nullptr);
  ring_->Reap();
  return ring_->Find(token_) != nullptr;
}

const AsyncCompletion& CallFuture::Wait(Processor& cpu) {
  LRPC_CHECK(ring_ != nullptr);
  ring_->Flush(cpu);
  ring_->Reap();
  const AsyncCompletion* completion = ring_->Find(token_);
  LRPC_CHECK(completion != nullptr);
  return *completion;
}

const AsyncCompletion& CallFuture::result() const {
  const AsyncCompletion* completion = ring_->Find(token_);
  LRPC_CHECK(completion != nullptr);
  return *completion;
}

}  // namespace lrpc
