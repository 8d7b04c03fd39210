// The three workloads. Each builds its inputs from options.seed, sets up
// (several times; the median is setup_s), measures for options.seconds,
// checks every output and returns its metrics.
#pragma once

#include "report.hpp"

namespace perfbench {

/// Verified file delivery over loopback UDP to 8 closed-loop clients.
Result run_file_udp(const Options& options);
/// Pre-serialized 64 B LT frames routed into a 2-shard ShardedEndpoint.
Result run_ingest_ring(const Options& options);
/// Event-engine LTNC dissemination to 10^4 nodes, one fresh process per
/// simulation.
Result run_gossip_sim(const Options& options);

/// file_udp and ingest_ring set up this many times, tearing down all but
/// the last set-up; setup_s is the median. (gossip_sim builds its much
/// cheaper simulator more often.)
inline constexpr int kSetupReps = 5;

}  // namespace perfbench
