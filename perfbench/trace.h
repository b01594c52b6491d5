// Traced-run instrumentation, all of it outside the LRPC libraries: spans
// opened around each public call into a layer, kept per thread and reduced
// when the run ends; kernel-event counts from a KernelEventListener; and a
// forwarding ProcTransport that times the process backend's transfers.
//
// A span's self time is its duration minus the durations of the child
// spans it covers, so the self times of one call sum to its root span.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <span>

#include "src/common/histogram.h"
#include "src/kern/kernel.h"
#include "src/lrpc/proc_transport.h"
#include "src/lrpc/runtime.h"

namespace perfbench {

// A handler span stamped by a server process into shared memory.
struct ServerSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// The server layer's record on the process backend, placed in a ProcSegment
// mapped before the fork so the server's writes reach the client. Only the
// server writes it while a call is outstanding.
inline constexpr std::size_t kServerRing = 64;  // >= AsyncRing::kMaxDepth.
struct ServerLog {
  std::atomic<std::uint64_t> executions{0};  // Handler runs; release-stored.
  std::atomic<std::uint32_t> tracing{0};     // 1: stamp spans into ring.
  ServerSpan ring[kServerRing];              // Span of execution i at i % size.
};

enum class Layer : int {
  kCall,      // LrpcRuntime::Call / CallParallel / CallInlineParallel.
  kSubmit,    // AsyncRing::Submit.
  kFlush,     // AsyncRing::Flush.
  kReap,      // AsyncRing::Reap.
  kTransfer,  // ProcTransport::Execute.
  kBatch,     // ProcTransport::ExecuteBatch.
  kServer,    // The benchmark's own handlers (the server layer).
  kCount,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
inline constexpr std::size_t kEventKinds = 32;

// Latency histograms of one workload share one shape, so per-thread copies
// merge exactly: kBuckets buckets of the workload's width.
inline constexpr std::size_t kBuckets = 4096;
lrpc::Histogram NewLatencyHistogram(std::uint64_t bucket_ns);

// One caller thread's spans and counts. Only its own thread writes it.
class ThreadTrace {
 public:
  explicit ThreadTrace(std::uint64_t bucket_ns);

  void Begin(Layer layer);
  void End();
  // Records a child of the innermost open span that was timed elsewhere
  // (a handler span stamped by the server process).
  void AddChild(Layer layer, std::int64_t duration_ns);
  void CountEvent(lrpc::KernelEventKind kind);
  void CountCall(const lrpc::CallStats& stats);
  void CountWindow(std::size_t bytes) { window_bytes_ += bytes; }

  const lrpc::Histogram& self(Layer layer) const {
    return self_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t root_ns() const { return root_ns_; }
  std::uint64_t events(lrpc::KernelEventKind kind) const {
    return events_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t copies() const { return copies_; }
  std::uint64_t bytes_copied() const { return bytes_copied_; }
  std::uint64_t astack_bytes() const { return astack_bytes_; }
  std::uint64_t oob_calls() const { return oob_calls_; }
  std::uint64_t window_bytes() const { return window_bytes_; }

  void Merge(const ThreadTrace& other);

 private:
  struct Open {
    Layer layer = Layer::kCall;
    std::int64_t start = 0;
    std::int64_t children = 0;
  };
  void Close(Layer layer, std::int64_t duration, std::int64_t children);

  std::array<lrpc::Histogram, kLayers> self_;
  std::array<Open, 8> stack_{};
  int depth_ = 0;
  std::uint64_t root_ns_ = 0;
  std::array<std::uint64_t, kEventKinds> events_{};
  std::uint64_t copies_ = 0;
  std::uint64_t bytes_copied_ = 0;
  std::uint64_t astack_bytes_ = 0;
  std::uint64_t oob_calls_ = 0;
  std::uint64_t window_bytes_ = 0;
};

// The calling thread's trace, or null when this thread is not tracing.
ThreadTrace* CurrentTrace();
void BindTrace(ThreadTrace* trace);

// Opens a span for the enclosing scope; free when the thread is untraced.
class Span {
 public:
  explicit Span(Layer layer) : trace_(CurrentTrace()) {
    if (trace_ != nullptr) {
      trace_->Begin(layer);
    }
  }
  ~Span() {
    if (trace_ != nullptr) {
      trace_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_;
};

// Counts kernel events into the calling thread's trace.
class EventCounter : public lrpc::KernelEventListener {
 public:
  void OnKernelEvent(lrpc::Kernel& kernel, lrpc::KernelEventKind kind) override;
};

// Forwards every ProcTransport virtual to the real transport — ExecuteBatch
// included, so the single-doorbell protocol is the one measured — and
// spans Execute and ExecuteBatch. After each transfer it collects the
// handler spans the server process stamped into its ServerLog and records
// them as the transfer's children.
class TracingTransport : public lrpc::ProcTransport {
 public:
  TracingTransport(lrpc::ProcTransport& inner, ServerLog& log);

  bool Serves(lrpc::DomainId server) const override;
  std::size_t payload_capacity() const override;
  lrpc::Status SpawnServer(lrpc::DomainId server,
                           const lrpc::Interface* iface) override;
  lrpc::Status Execute(lrpc::DomainId server, lrpc::DomainId client,
                       int procedure, bool inline_window, std::uint8_t* window,
                       std::size_t window_len, lrpc::Status* handler_status,
                       KillPhase kill) override;
  lrpc::Status ExecuteBatch(lrpc::DomainId server, lrpc::DomainId client,
                            std::span<BatchCall> calls,
                            KillPhase kill) override;
  void OnDomainTerminated(lrpc::DomainId domain) override;

 private:
  void CollectServerSpans();

  lrpc::ProcTransport& inner_;
  ServerLog& log_;
  std::uint64_t collected_;  // Server executions already collected.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
