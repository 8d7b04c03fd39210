// ltbench — one workload, one seed, one JSON line.
//
//   ltbench --workload file_udp|ingest_ring|gossip_sim --seed N
//           --seconds S --trace 0|1 [--trace-out FILE]
//           [--inject-delay OP:NS]
//
// Progress goes to stderr; the last line of stdout is the result object
// (metrics, attempted/failed counts, per-thread accounting, build
// identity). Exits 1 when an output check failed, 2 on bad usage.
// perfbench/run.py builds this binary and wraps it in the benchmark's
// command line.
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

bool parse_delay(std::string_view spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos) return false;
  const std::string_view name = spec.substr(0, colon);
  const long long ns = std::atoll(std::string(spec.substr(colon + 1)).c_str());
  for (std::size_t i = 0; i < kOpCount; ++i) {
    if (name == op_info(static_cast<Op>(i)).name && ns > 0) {
      Tracer::instance().inject_delay(static_cast<Op>(i), ns);
      return true;
    }
  }
  return false;
}

int usage() {
  std::cerr << "usage: ltbench --workload file_udp|ingest_ring|gossip_sim "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--inject-delay OP:NS]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (!has_value) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--inject-delay") {
      if (!parse_delay(value)) return usage();
    } else {
      return usage();
    }
  }
  if (options.seconds <= 0.0) return usage();

  Result result;
  if (options.workload == "file_udp") {
    result = run_file_udp(options);
  } else if (options.workload == "ingest_ring") {
    result = run_ingest_ring(options);
  } else if (options.workload == "gossip_sim") {
    result = run_gossip_sim(options);
  } else {
    return usage();
  }
  complete_per_layer(result);
  if (options.trace && !options.trace_out.empty() &&
      !Tracer::instance().write_chrome_trace(options.trace_out)) {
    std::cerr << "cannot write " << options.trace_out << "\n";
  }
  for (const std::string& failure : result.check_failures) {
    std::cerr << "check failed: " << failure << "\n";
  }
  write_json(std::cout, options, result);
  return result.correct() ? 0 : 1;
}
