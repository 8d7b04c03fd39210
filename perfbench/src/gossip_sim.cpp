// gossip_sim — the paper's protocol at scale: event-engine (kScale) LTNC
// dissemination with binary feedback to 10^4 nodes, k = 16, 16 B blocks.
//
// Each simulation runs in a forked child so its peak RSS is its own; the
// child sends its metrics back over a pipe as text lines and the parent
// reports the mean over the run's simulations, one per 7 s of --seconds.
// Node "delivery" time is the wall time from the first gossip round to
// the end of the round in which the node finished decoding; every node's
// payload is verified against the ground truth at the end.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "dissemination/event_engine.hpp"
#include "session/endpoint.hpp"
#include "session/protocols.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ltnc;

constexpr std::size_t kNodes = 10000;
constexpr std::size_t kK = 16;
constexpr std::size_t kPayload = 16;
/// Building the simulator takes well under a millisecond, so it is timed
/// more often than the other workloads' set-ups to steady its median.
constexpr int kBuildReps = 15;
/// Wall seconds budgeted per simulation (6–9 s each on a 4-vCPU Xeon
/// guest). The simulation count follows from --seconds alone, never from
/// how fast the machine is today, so one seed always runs the same
/// simulations and the trajectory figures repeat exactly.
constexpr double kSecondsPerSimulation = 7.0;

dissem::SimConfig sim_config(std::uint64_t seed) {
  dissem::SimConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.k = kK;
  cfg.payload_bytes = kPayload;
  cfg.seed = seed;
  cfg.content_seed = seed * 31 + 42;
  cfg.source_pushes_per_round = 4;
  cfg.max_rounds = 5000;
  cfg.feedback = session::FeedbackMode::kBinary;
  return cfg;
}

/// One simulation, start to finish, in the calling process.
Result run_one(const Options& options, std::uint64_t seed) {
  Tracer& tracer = Tracer::instance();
  Result result;
  const std::size_t n = kNodes;
  const dissem::SimConfig cfg = sim_config(seed);

  std::vector<double> setup_s;
  std::unique_ptr<dissem::EventSimulation> sim;
  for (int rep = 0; rep < kBuildReps; ++rep) {
    sim.reset();
    if (rep + 1 == kBuildReps && options.trace) {
      tracer.set_enabled(true);
      tracer.set_phase(Phase::kSetup);
      tracer.attach("sim");
    }
    const Nanos t0 = now_ns();
    {
      Span span(Op::kSimBuild);
      sim = std::make_unique<dissem::EventSimulation>(
          session::Scheme::kLtnc, cfg, dissem::EngineMode::kScale);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  tracer.set_phase(Phase::kMeasure);
  const Nanos start = now_ns();
  std::vector<double> step_ms;
  std::vector<double> round_end_ms(1, 0.0);  ///< index = round number
  while (!sim->finished()) {
    const Nanos t0 = now_ns();
    {
      Span span(Op::kSimStep, sim->round() + 1);
      sim->step();
    }
    const Nanos t1 = now_ns();
    step_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (round_end_ms.size() <= sim->round()) {
      round_end_ms.resize(sim->round() + 1, 0.0);
    }
    round_end_ms[sim->round()] = static_cast<double>(t1 - start) / 1e6;
  }
  const Nanos sim_end = now_ns();
  dissem::SimResult r;
  {
    Span span(Op::kSimFinalise);
    r = sim->core().finalise();
  }
  const Nanos window_end = now_ns();
  tracer.set_phase(Phase::kDiscard);
  const double sim_wall_s = static_cast<double>(sim_end - start) / 1e9;
  const double arena_live =
      static_cast<double>(WordArena::local().stats().live_words) * 8.0;
  const double materialized =
      static_cast<double>(sim->core().materialized_count());
  const std::uint64_t events = sim->events_processed();

  std::vector<double> delivery_ms;
  delivery_ms.reserve(n);
  for (const std::size_t round : r.completion_round) {
    if (round < round_end_ms.size()) delivery_ms.push_back(round_end_ms[round]);
  }
  const std::size_t complete = r.nodes_complete;
  result.attempted = n;
  result.failed = (n - complete) + (r.payloads_verified ? 0 : complete);
  const std::uint64_t bad_frames =
      r.sessions.malformed_frames + r.sessions.foreign_frames;
  if (bad_frames != 0) {
    result.check_failures.push_back(std::to_string(bad_frames) +
                                    " malformed or foreign frames");
  }
  if (!r.all_complete) result.check_failures.push_back("dissemination incomplete");
  if (!r.payloads_verified) result.check_failures.push_back("payload mismatch");

  const double content_bytes = static_cast<double>(n * kK * kPayload);
  const double verified_bytes =
      r.payloads_verified ? static_cast<double>(complete * kK * kPayload) : 0.0;
  const double rss = peak_rss_bytes();
  const double nodes = static_cast<double>(n);
  const double wire_total = static_cast<double>(r.traffic.wire_bytes_total());

  result.e2e("setup_s", median(setup_s), "s");
  result.notes.push_back(setup_note(setup_s));
  result.e2e("goodput_MBps", verified_bytes / 1e6 / sim_wall_s, "MB/s");
  result.e2e("delivery_ms_p50", quantile(delivery_ms, 0.5), "ms");
  result.e2e("delivery_ms_p90", quantile(delivery_ms, 0.9), "ms");
  result.e2e("frames_per_s",
             static_cast<double>(r.sessions.frames_received) / sim_wall_s,
             "1/s");
  result.e2e("wire_bytes_per_content_byte", ratio(wire_total, content_bytes),
             "ratio");
  result.e2e("coding_overhead", r.overhead(), "ratio");
  result.e2e("peak_rss_MB", rss / 1e6, "MB");

  const auto& s = r.sessions;
  result.layer("session.abort_ratio",
               ratio(static_cast<double>(s.aborts_sent),
                     static_cast<double>(s.advertises_received)),
               "ratio");
  result.layer("session.bad_frames", static_cast<double>(bad_frames), "count");
  result.layer("wire.header_byte_share",
               ratio(wire_total - static_cast<double>(r.traffic.payload_bytes),
                     wire_total),
               "ratio");
  result.layer("core.recode_control_ops_per_recode",
               ratio(static_cast<double>(r.recode_ops.control_total()),
                     static_cast<double>(r.recode_ops.invocations)),
               "count");
  result.layer("core.decode_control_ops_per_receive",
               ratio(static_cast<double>(r.decode_ops.control_total()),
                     static_cast<double>(r.decode_ops.invocations)),
               "count");
  result.layer("core.redundancy_veto_rate",
               ratio(static_cast<double>(r.ltnc_redundancy_hits),
                     static_cast<double>(r.ltnc_redundancy_checks)),
               "ratio");
  result.layer("core.degree_first_accept_rate",
               r.ltnc_degree_stats.first_accept_rate(), "ratio");
  result.layer("core.recode_failure_rate",
               ratio(static_cast<double>(r.ltnc_stats.recode_failures),
                     static_cast<double>(r.ltnc_stats.recodes)),
               "ratio");
  result.layer("core.build_target_rate", r.ltnc_build_stats.target_rate(),
               "ratio");
  result.layer("dissemination.step_ms_p50", quantile(step_ms, 0.5), "ms");
  result.layer("dissemination.step_ms_p90", quantile(step_ms, 0.9), "ms");
  result.layer("dissemination.events_per_s",
               static_cast<double>(events) / sim_wall_s, "1/s");
  result.layer("dissemination.events_per_node",
               static_cast<double>(events) / nodes, "count");
  result.layer("dissemination.sim_wall_s", sim_wall_s, "s");
  result.layer("dissemination.mean_completion_round", r.mean_completion(),
               "rounds");
  const double inline_bytes =
      static_cast<double>(sizeof(session::Endpoint) +
                          sizeof(session::LtncProtocol)) *
      materialized;
  result.layer("common.rss_per_node_KB", rss / nodes / 1e3, "KB");
  result.layer("common.arena_live_bytes_per_node", arena_live / nodes, "B");
  result.layer("common.inline_bytes_per_node", inline_bytes / nodes, "B");
  result.layer("common.unattributed_bytes_per_node",
               (rss - arena_live - inline_bytes) / nodes, "B");
  result.notes.push_back("rounds=" + std::to_string(r.rounds_run));
  result.notes.push_back("delivery_ms_samples=" +
                         std::to_string(delivery_ms.size()));

  if (options.trace) add_trace_accounting(result, window_end - start);
  tracer.set_enabled(false);
  return result;
}

// --- child → parent text protocol -------------------------------------------
//
//   e <name> <value> <unit>     end-to-end metric
//   l <name> <value> <unit>     per-layer metric
//   a <attempted> <failed>
//   c <text>                    failed check
//   n <text>                    note
//   t <name> <wall> <busy> <wait> <error> <self ms × layers>
//   o <op> <calls> <total ms> <self ms>

std::string encode(const Result& r) {
  std::ostringstream out;
  out.precision(17);
  for (const Metric& m : r.end_to_end) {
    out << "e " << m.name << ' ' << m.value << ' ' << m.unit << '\n';
  }
  for (const Metric& m : r.per_layer) {
    out << "l " << m.name << ' ' << m.value << ' ' << m.unit << '\n';
  }
  out << "a " << r.attempted << ' ' << r.failed << '\n';
  for (const std::string& c : r.check_failures) out << "c " << c << '\n';
  for (const std::string& note : r.notes) out << "n " << note << '\n';
  for (const ThreadAccount& t : r.threads) {
    out << "t " << t.name << ' ' << t.wall_ns << ' ' << t.busy_ns << ' '
        << t.wait_ns << ' ' << t.accounting_error;
    for (const Nanos self : t.layer_self_ns) out << ' ' << self;
    out << '\n';
  }
  for (const OpReport& op : r.ops) {
    out << "o " << op.name << ' ' << op.calls << ' ' << op.total_ms << ' '
        << op.self_ms << '\n';
  }
  return out.str();
}

Result decode(const std::string& text) {
  Result r;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    std::istringstream fields(line.substr(2));
    switch (line[0]) {
      case 'e':
      case 'l': {
        Metric m;
        fields >> m.name >> m.value >> m.unit;
        (line[0] == 'e' ? r.end_to_end : r.per_layer).push_back(m);
        break;
      }
      case 'a':
        fields >> r.attempted >> r.failed;
        break;
      case 'c':
        r.check_failures.push_back(line.substr(2));
        break;
      case 'n':
        r.notes.push_back(line.substr(2));
        break;
      case 't': {
        ThreadAccount t;
        fields >> t.name >> t.wall_ns >> t.busy_ns >> t.wait_ns >>
            t.accounting_error;
        for (Nanos& self : t.layer_self_ns) fields >> self;
        r.threads.push_back(t);
        break;
      }
      case 'o': {
        OpReport op;
        fields >> op.name >> op.calls >> op.total_ms >> op.self_ms;
        r.ops.push_back(op);
        break;
      }
      default:
        break;
    }
  }
  return r;
}

/// Runs one simulation in a forked child (fresh address space, own peak
/// RSS); falls back to this process when fork is unavailable.
Result run_forked(const Options& options, std::uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) return run_one(options, seed);
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return run_one(options, seed);
  }
  if (pid == 0) {
    close(fds[0]);
    const Result r = run_one(options, seed);
    if (options.trace && !options.trace_out.empty()) {
      Tracer::instance().write_chrome_trace(options.trace_out);
    }
    const std::string text = encode(r);
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t w = write(fds[1], text.data() + off, text.size() - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t got = read(fds[0], buf, sizeof buf);
    if (got > 0) {
      text.append(buf, static_cast<std::size_t>(got));
    } else if (got < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Result r = decode(text);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) {
    r.check_failures.push_back("simulation child failed");
  }
  return r;
}

/// Mean of each metric over the simulations: they are independent
/// trajectories of one random process, whose expected value is the figure
/// of interest (each one's timing already spans several seconds).
std::vector<Metric> mean_metrics(const std::vector<Result>& runs,
                                 bool end_to_end) {
  std::vector<Metric> out;
  std::map<std::string, std::vector<double>> values;
  for (const Result& run : runs) {
    for (const Metric& m : end_to_end ? run.end_to_end : run.per_layer) {
      if (values.find(m.name) == values.end()) out.push_back(m);
      values[m.name].push_back(m.value);
    }
  }
  for (Metric& m : out) {
    const std::vector<double>& v = values[m.name];
    double sum = 0.0;
    for (const double x : v) sum += x;
    m.value = sum / static_cast<double>(v.size());
  }
  return out;
}

}  // namespace

Result run_gossip_sim(const Options& options) {
  const auto simulations = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(options.seconds / kSecondsPerSimulation));
  std::vector<Result> runs;
  for (std::uint64_t i = 0; i < simulations; ++i) {
    const Nanos t0 = now_ns();
    runs.push_back(run_forked(options, options.seed * 1000 + i));
    std::cerr << "gossip_sim: simulation " << i << " took "
              << static_cast<double>(now_ns() - t0) / 1e9 << " s\n";
    if (runs.back().end_to_end.empty()) break;
  }
  Result result;
  result.end_to_end = mean_metrics(runs, true);
  result.per_layer = mean_metrics(runs, false);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Result& run = runs[i];
    result.attempted += run.attempted;
    result.failed += run.failed;
    result.check_failures.insert(result.check_failures.end(),
                                 run.check_failures.begin(),
                                 run.check_failures.end());
    for (const std::string& note : run.notes) {
      result.notes.push_back("sim" + std::to_string(i) + ": " + note);
    }
    for (const OpReport& op : run.ops) {
      auto it = std::find_if(result.ops.begin(), result.ops.end(),
                             [&](const OpReport& o) { return o.name == op.name; });
      if (it == result.ops.end()) {
        result.ops.push_back(op);
      } else {
        it->calls += op.calls;
        it->total_ms += op.total_ms;
        it->self_ms += op.self_ms;
      }
    }
    for (ThreadAccount t : run.threads) {
      t.name = "sim" + std::to_string(i) + "-" + t.name;
      result.threads.push_back(t);
    }
  }
  result.notes.push_back("simulations=" + std::to_string(runs.size()));
  return result;
}

}  // namespace perfbench
