// What one workload run reports, and the helpers every workload shares:
// command-line options, quantiles, peak RSS, span-derived per-layer
// figures and the JSON line the runner script reads.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs only)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Measured-phase totals of one traced op, summed over threads.
struct OpReport {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks beyond per-operation failures (bad frames, too few
  /// deliveries). Any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  std::vector<ThreadAccount> threads;
  std::vector<OpReport> ops;
  std::vector<std::string> notes;  ///< sample counts, shapes, …

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  bool correct() const { return failed == 0 && check_failures.empty(); }
};

/// Log-bucketed histogram of positive values (0.5 % wide buckets from
/// 1e-3 to 1e5): fixed memory whatever the sample count, so a faster run
/// does not grow the process, and quantiles within 0.25 % of exact.
class LogHistogram {
 public:
  LogHistogram();
  void add(double value);
  std::uint64_t count() const { return count_; }
  /// Geometric middle of the bucket holding the q-quantile; 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Median rate over the full slices of a measured window: `marks` are
/// (time, cumulative count) pairs, one per slice boundary. Robust to a
/// burst of outside load during part of the run.
double median_slice_rate(
    const std::vector<std::pair<Nanos, double>>& marks);

/// "setup_ms=a,b,c": every timed set-up of the run, in order.
std::string setup_note(const std::vector<double>& setup_s);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// there are none.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Peak resident set of this process in bytes (ru_maxrss).
double peak_rss_bytes();

/// a ÷ b, 0 when b is 0 (a layer the workload does not exercise).
double ratio(double a, double b);

/// Appends the span-derived figures every traced run reports: each
/// layer's share of measured thread time, the waiting share, and the
/// worst per-thread accounting error. Also fills result.threads and
/// result.ops.
void add_trace_accounting(Result& result, Nanos measured_wall_ns);

/// Self ns per call of `op` in `phase`, 0 when never called.
double self_ns_per_call(const OpTable& table, Op op);
/// Total (self + children) ns of `op` divided by `units`.
double total_ns_per(const OpTable& table, Op op, double units);

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise a layer reports that layer's figures as 0.
struct CatalogEntry {
  const char* name;
  const char* unit;
};
const std::vector<CatalogEntry>& per_layer_catalog();

/// Adds every catalog metric the workload did not set, as 0, and orders
/// the per-layer list like the catalog.
void complete_per_layer(Result& result);

/// Writes the result as one JSON object on one line.
void write_json(std::ostream& out, const Options& options,
                const Result& result);

}  // namespace perfbench
