#include "trace.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>

namespace perfbench {

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "net", "session", "lt", "wire", "dissemination", "store", "bench"};
  return kNames[static_cast<std::size_t>(layer)];
}

const OpInfo& op_info(Op op) {
  static constexpr std::array<OpInfo, kOpCount> kInfo = {{
      {"net.send_batch", Layer::kNet},
      {"net.recv_batch", Layer::kNet},
      {"net.send_ack", Layer::kNet},
      {"session.route_frame", Layer::kSession},
      {"session.poll_transmit", Layer::kSession},
      {"session.offer_packet", Layer::kSession},
      {"session.handle_frame", Layer::kSession},
      {"session.content_setup", Layer::kSession},
      {"session.shard_start", Layer::kSession},
      {"lt.encode", Layer::kLt},
      {"lt.deliver", Layer::kLt},
      {"lt.sink_verify", Layer::kLt},
      {"lt.reference_decode", Layer::kLt},
      {"wire.serialize", Layer::kWire},
      {"store.chunk", Layer::kStore},
      {"store.verify_bytes", Layer::kStore},
      {"dissemination.sim_build", Layer::kDissemination},
      {"dissemination.step", Layer::kDissemination},
      {"dissemination.finalise", Layer::kDissemination},
      {"bench.input_gen", Layer::kBench},
      {"bench.feed", Layer::kBench},
      {"bench.pump", Layer::kBench},
      {"bench.sockets", Layer::kBench},
  }};
  return kInfo[static_cast<std::size_t>(op)];
}

void ThreadTrace::open(Op op, std::uint64_t id, Phase phase, Nanos at) {
  if (depth_ == kMaxDepth) {
    ++overflow_;
    return;
  }
  stack_[depth_++] = Open{op, phase, id, at, 0};
}

void ThreadTrace::close(Nanos at) {
  if (overflow_ > 0) {
    --overflow_;
    return;
  }
  if (depth_ == 0) return;
  const Open span = stack_[--depth_];
  const Nanos duration = at - span.start;
  const auto phase = static_cast<std::size_t>(span.phase);
  OpTotals& totals = totals_[phase][static_cast<std::size_t>(span.op)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - span.child_ns;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += duration;
  } else {
    top_ns_[phase] += duration;
  }
  if (span.phase == Phase::kMeasure && samples_.size() < kMaxSamples) {
    samples_.push_back(RawSpan{span.start, at, span.id, span.op,
                               static_cast<std::uint8_t>(depth_)});
  }
}

ThreadAccount account(const ThreadTrace& trace, Nanos wall_ns) {
  ThreadAccount acc;
  acc.name = trace.name();
  acc.wall_ns = wall_ns;
  acc.busy_ns = trace.top_level_ns(Phase::kMeasure);
  acc.wait_ns = wall_ns - acc.busy_ns;
  const OpTable& totals = trace.totals(Phase::kMeasure);
  Nanos self_sum = 0;
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const Layer layer = op_info(static_cast<Op>(i)).layer;
    acc.layer_self_ns[static_cast<std::size_t>(layer)] += totals[i].self_ns;
    self_sum += totals[i].self_ns;
  }
  acc.accounting_error =
      wall_ns <= 0 ? 0.0
                   : static_cast<double>(std::llabs(self_sum + acc.wait_ns -
                                                    wall_ns)) /
                         static_cast<double>(wall_ns);
  return acc;
}

namespace {
thread_local ThreadTrace* tls_trace = nullptr;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::attach(const std::string& name) {
  if (!enabled() || tls_trace != nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadTrace>(name));
  tls_trace = threads_.back().get();
}

ThreadTrace* Tracer::current() { return tls_trace; }

std::vector<const ThreadTrace*> Tracer::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ThreadTrace*> out;
  out.reserve(threads_.size());
  for (const auto& t : threads_) out.push_back(t.get());
  return out;
}

OpTable Tracer::merged(Phase phase) const {
  OpTable out{};
  for (const ThreadTrace* t : threads()) {
    const OpTable& totals = t->totals(phase);
    for (std::size_t i = 0; i < kOpCount; ++i) out[i] += totals[i];
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<const ThreadTrace*> all = threads();
  if (all.empty()) return true;  // nothing traced in this process
  std::ofstream out(path);
  if (!out) return false;
  Nanos origin = 0;
  for (const ThreadTrace* t : all) {
    for (const RawSpan& s : t->samples()) {
      if (origin == 0 || s.start < origin) origin = s.start;
    }
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < all.size(); ++tid) {
    out << (first ? "" : ",") << "\n{\"ph\":\"M\",\"name\":\"thread_name\","
        << "\"pid\":1,\"tid\":" << tid << ",\"args\":{\"name\":\""
        << all[tid]->name() << "\"}}";
    first = false;
    for (const RawSpan& s : all[tid]->samples()) {
      const OpInfo& info = op_info(s.op);
      out << ",\n{\"ph\":\"X\",\"name\":\"" << info.name << "\",\"cat\":\""
          << layer_name(info.layer) << "\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(s.start - origin) / 1000.0
          << ",\"dur\":" << static_cast<double>(s.end - s.start) / 1000.0
          << ",\"args\":{\"id\":" << s.id << ",\"depth\":"
          << static_cast<int>(s.depth) << "}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
