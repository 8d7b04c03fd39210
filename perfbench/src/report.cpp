#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "common/kernels.hpp"
#include "telemetry/telemetry.hpp"

#ifndef LTBENCH_BUILD_TYPE
#define LTBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define LTBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define LTBENCH_COMPILER "gcc " __VERSION__
#else
#define LTBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {
constexpr double kHistMin = 1e-3;
constexpr double kHistGrowth = 1.005;
const double kLogGrowth = std::log(kHistGrowth);
constexpr std::size_t kHistBuckets = 3700;  // 1e-3 · 1.005^3700 > 1e5
}  // namespace

LogHistogram::LogHistogram() : buckets_(kHistBuckets, 0) {}

void LogHistogram::add(double value) {
  std::size_t bucket = 0;
  if (value > kHistMin) {
    bucket = std::min(kHistBuckets - 1,
                      static_cast<std::size_t>(
                          std::log(value / kHistMin) / kLogGrowth) + 1);
  }
  ++buckets_[bucket];
  ++count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      if (i == 0) return kHistMin;
      // Bucket i holds [min·g^(i−1), min·g^i); report its geometric middle.
      return kHistMin * std::pow(kHistGrowth, static_cast<double>(i) - 0.5);
    }
  }
  return kHistMin * std::pow(kHistGrowth, static_cast<double>(kHistBuckets));
}

double median_slice_rate(
    const std::vector<std::pair<Nanos, double>>& marks) {
  std::vector<double> rates;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const double seconds =
        static_cast<double>(marks[i].first - marks[i - 1].first) / 1e9;
    if (seconds > 0.0) {
      rates.push_back((marks[i].second - marks[i - 1].second) / seconds);
    }
  }
  return median(std::move(rates));
}

std::string setup_note(const std::vector<double>& setup_s) {
  std::string note = "setup_ms=";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    if (i > 0) note += ',';
    note += std::to_string(setup_s[i] * 1e3);
  }
  return note;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB on Linux
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double self_ns_per_call(const OpTable& table, Op op) {
  const OpTotals& t = table[static_cast<std::size_t>(op)];
  return ratio(static_cast<double>(t.self_ns), static_cast<double>(t.calls));
}

double total_ns_per(const OpTable& table, Op op, double units) {
  return ratio(static_cast<double>(table[static_cast<std::size_t>(op)].total_ns),
               units);
}

void add_trace_accounting(Result& result, Nanos measured_wall_ns) {
  std::array<double, kLayerCount> layer_self{};
  double wall = 0.0;
  double wait = 0.0;
  double worst_error = 0.0;
  for (const ThreadTrace* trace : Tracer::instance().threads()) {
    ThreadAccount acc = account(*trace, measured_wall_ns);
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      layer_self[l] += static_cast<double>(acc.layer_self_ns[l]);
    }
    wall += static_cast<double>(acc.wall_ns);
    wait += static_cast<double>(acc.wait_ns);
    worst_error = std::max(worst_error, acc.accounting_error);
    result.threads.push_back(std::move(acc));
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    result.layer(std::string(layer_name(static_cast<Layer>(l))) +
                     ".self_share",
                 ratio(layer_self[l], wall), "ratio");
  }
  const OpTable measured = Tracer::instance().merged(Phase::kMeasure);
  for (std::size_t i = 0; i < kOpCount; ++i) {
    if (measured[i].calls == 0) continue;
    result.ops.push_back({op_info(static_cast<Op>(i)).name, measured[i].calls,
                          static_cast<double>(measured[i].total_ns) / 1e6,
                          static_cast<double>(measured[i].self_ns) / 1e6});
  }
  result.layer("trace.wait_share", ratio(wait, wall), "ratio");
  result.layer("trace.accounting_error_max", worst_error, "ratio");
}

const std::vector<CatalogEntry>& per_layer_catalog() {
  static const std::vector<CatalogEntry> kCatalog = {
      {"net.send_batch_ns_per_frame", "ns"},
      {"net.recv_batch_ns_per_frame", "ns"},
      {"net.frames_per_send_call", "count"},
      {"net.frames_per_recv_call", "count"},
      {"net.loopback_loss_ratio", "ratio"},
      {"net.recv_idle_share", "ratio"},
      {"session.route_ns_per_frame", "ns"},
      {"session.route_full_retries", "count"},
      {"session.shard_imbalance", "ratio"},
      {"session.poll_transmit_ns_per_frame", "ns"},
      {"session.offer_ns_per_frame", "ns"},
      {"session.handle_frame_self_ns", "ns"},
      {"session.post_completion_frame_share", "ratio"},
      {"session.abort_ratio", "ratio"},
      {"session.bad_frames", "count"},
      {"lt.encode_ns_per_frame", "ns"},
      {"lt.deliver_ns_per_frame", "ns"},
      {"lt.frames_per_decode", "ratio"},
      {"lt.decode_data_bytes_per_content_byte", "ratio"},
      {"wire.serialize_ns_per_frame", "ns"},
      {"wire.header_byte_share", "ratio"},
      {"core.recode_control_ops_per_recode", "count"},
      {"core.decode_control_ops_per_receive", "count"},
      {"core.redundancy_veto_rate", "ratio"},
      {"core.degree_first_accept_rate", "ratio"},
      {"core.recode_failure_rate", "ratio"},
      {"core.build_target_rate", "ratio"},
      {"dissemination.step_ms_p50", "ms"},
      {"dissemination.step_ms_p90", "ms"},
      {"dissemination.events_per_s", "1/s"},
      {"dissemination.events_per_node", "count"},
      {"dissemination.sim_wall_s", "s"},
      {"dissemination.mean_completion_round", "rounds"},
      {"store.verify_ns_per_byte", "ns"},
      {"store.chunk_ns_per_byte", "ns"},
      {"common.rss_per_node_KB", "KB"},
      {"common.arena_live_bytes_per_node", "B"},
      {"common.inline_bytes_per_node", "B"},
      {"common.unattributed_bytes_per_node", "B"},
      {"common.arena_fresh_blocks", "count"},
      {"net.self_share", "ratio"},
      {"session.self_share", "ratio"},
      {"lt.self_share", "ratio"},
      {"wire.self_share", "ratio"},
      {"dissemination.self_share", "ratio"},
      {"store.self_share", "ratio"},
      {"bench.self_share", "ratio"},
      {"trace.wait_share", "ratio"},
      {"trace.accounting_error_max", "ratio"},
  };
  return kCatalog;
}

void complete_per_layer(Result& result) {
  std::vector<Metric> ordered;
  ordered.reserve(per_layer_catalog().size());
  for (const CatalogEntry& entry : per_layer_catalog()) {
    Metric metric{entry.name, 0.0, entry.unit};
    for (const Metric& m : result.per_layer) {
      if (m.name == entry.name) metric.value = m.value;
    }
    ordered.push_back(std::move(metric));
  }
  result.per_layer = std::move(ordered);
}

namespace {

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

void write_number(std::ostream& out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  out << std::setprecision(17) << value;
}

void write_metrics(std::ostream& out, const std::vector<Metric>& metrics) {
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ',';
    write_string(out, metrics[i].name);
    out << ":{\"value\":";
    write_number(out, metrics[i].value);
    out << ",\"unit\":";
    write_string(out, metrics[i].unit);
    out << '}';
  }
  out << '}';
}

}  // namespace

void write_json(std::ostream& out, const Options& options,
                const Result& result) {
  out << "{\"workload\":";
  write_string(out, options.workload);
  out << ",\"seed\":" << options.seed << ",\"traced\":"
      << (options.trace ? "true" : "false")
      << ",\"correct\":" << (result.correct() ? "true" : "false")
      << ",\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"end_to_end\":";
  write_metrics(out, result.end_to_end);
  out << ",\"per_layer\":";
  write_metrics(out, result.per_layer);
  out << ",\"check_failures\":[";
  for (std::size_t i = 0; i < result.check_failures.size(); ++i) {
    if (i > 0) out << ',';
    write_string(out, result.check_failures[i]);
  }
  out << "],\"notes\":[";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    if (i > 0) out << ',';
    write_string(out, result.notes[i]);
  }
  out << "],\"threads\":[";
  for (std::size_t i = 0; i < result.threads.size(); ++i) {
    const ThreadAccount& t = result.threads[i];
    if (i > 0) out << ',';
    out << "{\"name\":";
    write_string(out, t.name);
    out << ",\"wall_ms\":";
    write_number(out, static_cast<double>(t.wall_ns) / 1e6);
    out << ",\"busy_ms\":";
    write_number(out, static_cast<double>(t.busy_ns) / 1e6);
    out << ",\"wait_ms\":";
    write_number(out, static_cast<double>(t.wait_ns) / 1e6);
    out << ",\"accounting_error\":";
    write_number(out, t.accounting_error);
    out << ",\"self_ms\":{";
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      if (l > 0) out << ',';
      write_string(out, layer_name(static_cast<Layer>(l)));
      out << ':';
      write_number(out, static_cast<double>(t.layer_self_ns[l]) / 1e6);
    }
    out << "}}";
  }
  out << "],\"ops\":[";
  for (std::size_t i = 0; i < result.ops.size(); ++i) {
    const OpReport& op = result.ops[i];
    if (i > 0) out << ',';
    out << "{\"name\":";
    write_string(out, op.name);
    out << ",\"calls\":" << op.calls << ",\"total_ms\":";
    write_number(out, op.total_ms);
    out << ",\"self_ms\":";
    write_number(out, op.self_ms);
    out << '}';
  }
  out << "],\"build\":{\"compiler\":";
  write_string(out, LTBENCH_COMPILER);
  out << ",\"build_type\":";
  write_string(out, LTBENCH_BUILD_TYPE);
  out << ",\"kernel_backend\":";
  write_string(out, ltnc::kernels::backend_name());
  out << ",\"telemetry\":" << (LTNC_TELEMETRY_ENABLED ? "true" : "false")
      << "}}\n";
}

}  // namespace perfbench
