#include "perfbench/trace.h"

#include <algorithm>

#include "perfbench/host.h"
#include "src/common/check.h"

namespace perfbench {

namespace {

thread_local ThreadTrace* tls_trace = nullptr;

}  // namespace

lrpc::Histogram NewLatencyHistogram(std::uint64_t bucket_ns) {
  return lrpc::Histogram(bucket_ns, kBuckets);
}

ThreadTrace* CurrentTrace() { return tls_trace; }
void BindTrace(ThreadTrace* trace) { tls_trace = trace; }

ThreadTrace::ThreadTrace(std::uint64_t bucket_ns)
    : self_{NewLatencyHistogram(bucket_ns), NewLatencyHistogram(bucket_ns),
            NewLatencyHistogram(bucket_ns), NewLatencyHistogram(bucket_ns),
            NewLatencyHistogram(bucket_ns), NewLatencyHistogram(bucket_ns),
            NewLatencyHistogram(bucket_ns)} {
  static_assert(kLayers == 7, "one histogram per layer");
}

void ThreadTrace::Begin(Layer layer) {
  LRPC_CHECK(depth_ < static_cast<int>(stack_.size()));
  stack_[static_cast<std::size_t>(depth_++)] = Open{layer, NowNs(), 0};
}

void ThreadTrace::End() {
  const std::int64_t end = NowNs();
  LRPC_CHECK(depth_ > 0);
  const Open open = stack_[static_cast<std::size_t>(--depth_)];
  Close(open.layer, end - open.start, open.children);
}

void ThreadTrace::AddChild(Layer layer, std::int64_t duration_ns) {
  Close(layer, std::max<std::int64_t>(duration_ns, 0), 0);
}

void ThreadTrace::Close(Layer layer, std::int64_t duration,
                        std::int64_t children) {
  // Clock reads are monotonic, but a child stamped by another process may
  // straddle its parent's edges by a few ns; self time never goes negative.
  const std::int64_t self = std::max<std::int64_t>(duration - children, 0);
  self_[static_cast<std::size_t>(layer)].Add(static_cast<std::uint64_t>(self));
  if (depth_ > 0) {
    stack_[static_cast<std::size_t>(depth_ - 1)].children += duration;
  } else {
    root_ns_ += static_cast<std::uint64_t>(duration);
  }
}

void ThreadTrace::CountEvent(lrpc::KernelEventKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  if (index < kEventKinds) {
    ++events_[index];
  }
}

void ThreadTrace::CountCall(const lrpc::CallStats& stats) {
  copies_ += stats.copies.total_ops();
  bytes_copied_ += stats.copies.bytes_copied;
  astack_bytes_ += stats.astack_bytes;
  oob_calls_ += stats.used_out_of_band ? 1 : 0;
}

void ThreadTrace::Merge(const ThreadTrace& other) {
  for (std::size_t i = 0; i < kLayers; ++i) {
    LRPC_CHECK_OK(self_[i].Merge(other.self_[i]));
  }
  root_ns_ += other.root_ns_;
  for (std::size_t i = 0; i < kEventKinds; ++i) {
    events_[i] += other.events_[i];
  }
  copies_ += other.copies_;
  bytes_copied_ += other.bytes_copied_;
  astack_bytes_ += other.astack_bytes_;
  oob_calls_ += other.oob_calls_;
  window_bytes_ += other.window_bytes_;
}

void EventCounter::OnKernelEvent(lrpc::Kernel&, lrpc::KernelEventKind kind) {
  if (ThreadTrace* trace = CurrentTrace()) {
    trace->CountEvent(kind);
  }
}

TracingTransport::TracingTransport(lrpc::ProcTransport& inner, ServerLog& log)
    : inner_(inner),
      log_(log),
      collected_(log.executions.load(std::memory_order_acquire)) {}

bool TracingTransport::Serves(lrpc::DomainId server) const {
  return inner_.Serves(server);
}

std::size_t TracingTransport::payload_capacity() const {
  return inner_.payload_capacity();
}

lrpc::Status TracingTransport::SpawnServer(lrpc::DomainId server,
                                           const lrpc::Interface* iface) {
  return inner_.SpawnServer(server, iface);
}

lrpc::Status TracingTransport::Execute(
    lrpc::DomainId server, lrpc::DomainId client, int procedure,
    bool inline_window, std::uint8_t* window, std::size_t window_len,
    lrpc::Status* handler_status, KillPhase kill) {
  Span span(Layer::kTransfer);
  const lrpc::Status status =
      inner_.Execute(server, client, procedure, inline_window, window,
                     window_len, handler_status, kill);
  CollectServerSpans();
  if (ThreadTrace* trace = CurrentTrace()) {
    trace->CountWindow(window_len);
  }
  return status;
}

lrpc::Status TracingTransport::ExecuteBatch(lrpc::DomainId server,
                                            lrpc::DomainId client,
                                            std::span<BatchCall> calls,
                                            KillPhase kill) {
  Span span(Layer::kBatch);
  const lrpc::Status status = inner_.ExecuteBatch(server, client, calls, kill);
  CollectServerSpans();
  if (ThreadTrace* trace = CurrentTrace()) {
    for (const BatchCall& call : calls) {
      trace->CountWindow(call.window_len);
    }
  }
  return status;
}

void TracingTransport::OnDomainTerminated(lrpc::DomainId domain) {
  inner_.OnDomainTerminated(domain);
}

void TracingTransport::CollectServerSpans() {
  // The server published each span before its executions store (release),
  // and the return doorbell ordered both before this load.
  const std::uint64_t executed =
      log_.executions.load(std::memory_order_acquire);
  ThreadTrace* trace = CurrentTrace();
  const std::uint64_t first =
      executed - collected_ > kServerRing ? executed - kServerRing : collected_;
  for (std::uint64_t i = first; trace != nullptr && i < executed; ++i) {
    const ServerSpan& span = log_.ring[i % kServerRing];
    trace->AddChild(Layer::kServer, span.end_ns - span.start_ns);
  }
  collected_ = executed;
}

}  // namespace perfbench
