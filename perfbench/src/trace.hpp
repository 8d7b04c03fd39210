// Span tracer for the benchmark — records, from outside the library, how
// long each layer's public calls take and which thread made them.
//
// A span is opened around one call into a layer (Span span(Op::kEncode,
// id) ... end of scope) and closed when the call returns. Spans nest per
// thread: a span opened while another is open is its child. Each thread
// keeps, per op, the call count, the total span time and the *self* time
// (span time minus the time its direct children cover), so a layer's
// self time never double-counts the layers it calls into. A thread's
// waiting time is its wall time minus its top-level spans.
//
// Everything stays in memory: per-op totals are fixed-size arrays, and a
// bounded sample of raw spans (with the id of the delivery or
// conversation they belong to) is kept for the Chrome trace written when
// the run ends. Tracing is a runtime switch; when it is off a Span costs
// one relaxed atomic load.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Nanos = std::int64_t;

/// Monotonic clock in nanoseconds (steady_clock).
Nanos now_ns();

/// The library layers the benchmark calls into, named after their src/
/// directories, plus the benchmark's own code. core and common are only
/// reached through these layers, so they are measured by counters.
enum class Layer : std::uint8_t {
  kNet,
  kSession,
  kLt,
  kWire,
  kDissemination,
  kStore,
  kBench,
};
inline constexpr std::size_t kLayerCount = 7;
const char* layer_name(Layer layer);

/// One traced call site. Each op belongs to exactly one layer.
enum class Op : std::uint8_t {
  // net
  kSendBatch,   ///< UdpTransport::send_batch
  kRecvBatch,   ///< UdpTransport::recv_batch
  kSendAck,     ///< UdpTransport::send (receiver feedback frames)
  // session
  kRouteFrame,    ///< ShardedEndpoint::route_frame
  kPollTransmit,  ///< ShardedEndpoint/Endpoint::poll_transmit
  kOfferPacket,   ///< Endpoint::offer_packet
  kHandleFrame,   ///< Endpoint::handle_frame
  kContentSetup,  ///< content register / expire on a live endpoint
  kShardStart,    ///< ShardedEndpoint construction (threads + endpoints)
  // lt
  kEncode,      ///< LtEncoder::encode
  kDeliver,     ///< LtSinkProtocol::deliver (BP decode)
  kSinkVerify,  ///< LtSinkProtocol::finish_and_verify
  kRefDecode,   ///< reference BpDecoder while building inputs
  // wire
  kSerialize,  ///< wire::serialize
  // store
  kChunk,        ///< store::chunk_bytes + describe_file
  kVerifyBytes,  ///< store::assemble_bytes + store::hash_bytes
  // dissemination
  kSimBuild,     ///< EventSimulation construction
  kSimStep,      ///< EventSimulation::step
  kSimFinalise,  ///< SimCore::finalise (includes payload verification)
  // bench
  kInputGen,  ///< seeded input generation
  kFeed,      ///< router batch: frame copies around route_frame calls
  kPump,      ///< ShardApp::pump body
  kSockets,   ///< socket open / bind / peer interning
};
inline constexpr std::size_t kOpCount = 23;

struct OpInfo {
  const char* name;
  Layer layer;
};
const OpInfo& op_info(Op op);

/// Setup spans and measured spans are kept apart: per-layer costs of the
/// measured phase must not include one-time set-up work, while set-up
/// costs (chunking, pool encoding) are per-layer metrics of their own.
/// Warm-up and wind-down spans are recorded under kDiscard.
enum class Phase : std::uint8_t { kSetup = 0, kMeasure = 1, kDiscard = 2 };
inline constexpr std::size_t kPhaseCount = 3;

struct OpTotals {
  std::uint64_t calls = 0;
  Nanos total_ns = 0;
  Nanos self_ns = 0;

  OpTotals& operator+=(const OpTotals& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    return *this;
  }
};

using OpTable = std::array<OpTotals, kOpCount>;

/// A raw span kept for the trace file.
struct RawSpan {
  Nanos start = 0;
  Nanos end = 0;
  std::uint64_t id = 0;  ///< delivery / conversation id (0 = none)
  Op op{};
  std::uint8_t depth = 0;
};

/// One thread's span stack and totals. Only its own thread writes it;
/// others read it after that thread has been joined.
class ThreadTrace {
 public:
  static constexpr std::size_t kMaxDepth = 32;
  static constexpr std::size_t kMaxSamples = 20000;

  explicit ThreadTrace(std::string name) : name_(std::move(name)) {}

  /// Opens a span at time `at`, child of the innermost open span.
  void open(Op op, std::uint64_t id, Phase phase, Nanos at);
  /// Closes the innermost open span at time `at`.
  void close(Nanos at);

  const std::string& name() const { return name_; }
  const OpTable& totals(Phase phase) const {
    return totals_[static_cast<std::size_t>(phase)];
  }
  /// Summed duration of the spans that had no parent.
  Nanos top_level_ns(Phase phase) const {
    return top_ns_[static_cast<std::size_t>(phase)];
  }
  const std::vector<RawSpan>& samples() const { return samples_; }
  std::size_t depth() const { return depth_; }

 private:
  struct Open {
    Op op{};
    Phase phase{};
    std::uint64_t id = 0;
    Nanos start = 0;
    Nanos child_ns = 0;
  };

  std::string name_;
  std::array<Open, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::size_t overflow_ = 0;  ///< opens past kMaxDepth (ignored)
  std::array<OpTable, kPhaseCount> totals_{};
  std::array<Nanos, kPhaseCount> top_ns_{};
  std::vector<RawSpan> samples_;
};

/// Where one thread's measured wall time went.
struct ThreadAccount {
  std::string name;
  Nanos wall_ns = 0;
  Nanos busy_ns = 0;  ///< top-level spans
  Nanos wait_ns = 0;  ///< wall − busy
  std::array<Nanos, kLayerCount> layer_self_ns{};
  /// |Σ layer self + wait − wall| ÷ wall: 0 when spans nest properly.
  double accounting_error = 0.0;
};

/// Splits `trace`'s measured phase over a wall time of `wall_ns`.
ThreadAccount account(const ThreadTrace& trace, Nanos wall_ns);

/// Process-wide tracer: the on/off switch, the phase, the optional
/// injected delay, and every thread's ThreadTrace.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_phase(Phase phase) {
    phase_.store(static_cast<std::uint8_t>(phase), std::memory_order_relaxed);
  }
  Phase phase() const {
    return static_cast<Phase>(phase_.load(std::memory_order_relaxed));
  }

  /// Registers the calling thread under `name` while tracing is on
  /// (idempotent per thread; a no-op when tracing is off).
  void attach(const std::string& name);
  /// The calling thread's trace, or null when it never attached.
  static ThreadTrace* current();

  /// Attribution self-test hook: every traced `op` busy-waits `ns`
  /// inside its span, as if that layer's call had become slower.
  void inject_delay(Op op, Nanos ns) {
    delay_op_ = op;
    delay_ns_ = ns;
  }
  Op delay_op() const { return delay_op_; }
  Nanos delay_ns() const { return delay_ns_; }

  /// Every attached thread (read after the threads were joined).
  std::vector<const ThreadTrace*> threads() const;
  /// Per-op totals of `phase` summed over all threads.
  OpTable merged(Phase phase) const;

  /// Writes the sampled spans as Chrome trace_event JSON.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint8_t> phase_{0};
  Op delay_op_ = Op::kSendBatch;
  Nanos delay_ns_ = 0;
  mutable std::mutex mu_;  ///< guards threads_
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(Op op, std::uint64_t id = 0) {
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return;
    trace_ = Tracer::current();
    if (trace_ == nullptr) return;
    const Nanos start = now_ns();
    trace_->open(op, id, tracer.phase(), start);
    if (tracer.delay_ns() > 0 && tracer.delay_op() == op) {
      while (now_ns() - start < tracer.delay_ns()) {
      }
    }
  }
  ~Span() {
    if (trace_ != nullptr) trace_->close(now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_ = nullptr;
};

}  // namespace perfbench
