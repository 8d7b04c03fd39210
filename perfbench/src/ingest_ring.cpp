// ingest_ring — the syscall-free inbound path at the smallest frames.
//
// Set-up LT-encodes 256 conversations (one content per peer, k = 32,
// 64 B payloads) into a pool of pre-serialized frames: for each of 8
// rounds and each conversation, exactly the frames a reference BP decoder
// needed to finish, interleaved across conversations. The main thread
// (the router) then replays the pool round after round into a 2-shard
// ShardedEndpoint, one route_frame per frame. Every shard's sinks decode,
// verify the natives with finish_and_verify and start over, so every
// round completes every conversation exactly once.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "lt/bp_decoder.hpp"
#include "lt/lt_encoder.hpp"
#include "session/endpoint.hpp"
#include "session/sharded.hpp"
#include "store/content_store.hpp"
#include "timed_sink.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ltnc;

constexpr std::size_t kPeers = 256;
constexpr std::size_t kK = 32;
constexpr std::size_t kPayload = 64;
constexpr std::uint32_t kShards = 2;
constexpr std::size_t kPoolRounds = 8;
constexpr std::size_t kFeedBatch = 64;
constexpr std::size_t kClockRing = std::size_t{1} << 16;
constexpr std::uint64_t kNoRound = ~std::uint64_t{0};
constexpr Nanos kSliceNs = 500'000'000;

ContentId content_of(std::size_t peer) {
  return static_cast<ContentId>(peer + 1);
}

struct Pool {
  std::vector<wire::Frame> frames;  ///< round-major, interleaved per round
  std::vector<session::PeerId> peers;
  std::vector<std::size_t> round_begin;  ///< kPoolRounds + 1 offsets
  std::vector<double> round_bytes;
  std::vector<std::uint64_t> content_seed;  ///< per peer
};

Pool make_pool(std::uint64_t seed) {
  Pool pool;
  std::vector<lt::LtEncoder> encoders;
  {
    Span span(Op::kInputGen);
    pool.content_seed.resize(kPeers);
    encoders.reserve(kPeers);
    for (std::size_t p = 0; p < kPeers; ++p) {
      pool.content_seed[p] = seed * 1000003ULL + p + 1;
      encoders.emplace_back(
          lt::make_native_payloads(kK, kPayload, pool.content_seed[p]));
    }
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  std::vector<std::vector<CodedPacket>> round(kPeers);
  for (std::size_t r = 0; r < kPoolRounds; ++r) {
    pool.round_begin.push_back(pool.frames.size());
    std::size_t longest = 0;
    for (std::size_t p = 0; p < kPeers; ++p) {
      round[p].clear();
      lt::BpDecoder reference(kK, kPayload);
      while (!reference.complete()) {
        CodedPacket packet;
        {
          Span span(Op::kEncode, content_of(p));
          packet = encoders[p].encode(rng);
        }
        {
          Span span(Op::kRefDecode, content_of(p));
          reference.receive(packet);
        }
        round[p].push_back(std::move(packet));
      }
      longest = std::max(longest, round[p].size());
    }
    double bytes = 0.0;
    for (std::size_t t = 0; t < longest; ++t) {
      for (std::size_t p = 0; p < kPeers; ++p) {
        if (t >= round[p].size()) continue;
        pool.frames.emplace_back();
        {
          Span span(Op::kSerialize, content_of(p));
          wire::serialize(content_of(p), round[p][t], pool.frames.back());
        }
        bytes += static_cast<double>(pool.frames.back().size());
        pool.peers.push_back(static_cast<session::PeerId>(p));
      }
    }
    pool.round_bytes.push_back(bytes);
  }
  pool.round_begin.push_back(pool.frames.size());
  return pool;
}

/// Router → shards: when each global round started, and which rounds are
/// measured.
struct RoundClock {
  std::vector<std::atomic<Nanos>> start =
      std::vector<std::atomic<Nanos>>(kClockRing);
  std::atomic<std::uint64_t> first_measured{kNoRound};
  std::atomic<std::uint64_t> end_measured{kNoRound};

  bool measured(std::uint64_t round) const {
    return round >= first_measured.load(std::memory_order_acquire) &&
           round < end_measured.load(std::memory_order_acquire);
  }
};

/// One shard's completed decodes. Written only by that shard's worker.
struct alignas(64) ShardTally final : CompletionListener {
  const Pool* pool = nullptr;
  RoundClock* clock = nullptr;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t verified = 0;  ///< measured rounds only, from here on
  double frames_to_complete = 0.0;
  double decode_data_bytes = 0.0;
  /// Completion latencies of the round in progress, then each finished
  /// round's p50 and p90 (a shard applies its frames in routing order, so
  /// its completions arrive round by round).
  std::vector<double> round_ms;
  std::uint64_t round_of_samples = kNoRound;
  std::vector<double> round_p50;
  std::vector<double> round_p90;
  bool arena_marked = false;

  void close_round() {
    if (round_ms.empty()) return;
    round_p50.push_back(quantile(round_ms, 0.5));
    round_p90.push_back(quantile(round_ms, 0.9));
    round_ms.clear();
  }
  std::uint64_t arena_fresh_at_window = 0;

  void on_complete(TimedSink& sink) override {
    const std::size_t peer = sink.id() - 1;
    const bool ok = sink.finish_and_verify(pool->content_seed[peer]);
    const Nanos done = now_ns();
    ++attempted;
    if (!ok) ++failed;
    const std::uint64_t round = sink.round();
    if (!clock->measured(round)) return;
    if (!arena_marked) {
      arena_marked = true;
      arena_fresh_at_window = WordArena::local().stats().fresh_blocks;
    }
    if (!ok) return;
    ++verified;
    frames_to_complete += static_cast<double>(sink.frames_to_complete());
    decode_data_bytes += sink.decoder().ops().data_bytes();
    if (round != round_of_samples) {
      close_round();
      round_of_samples = round;
    }
    round_ms.push_back(
        static_cast<double>(done - clock->start[round % kClockRing].load(
                                       std::memory_order_acquire)) /
        1e6);
  }
};

class IngestApp final : public session::ShardApp {
 public:
  IngestApp(const Pool& pool, RoundClock& clock) : tallies_(kShards) {
    for (ShardTally& t : tallies_) {
      t.pool = &pool;
      t.clock = &clock;
      t.round_ms.reserve(kPeers);
    }
  }

  std::unique_ptr<session::Endpoint> make_endpoint(
      std::uint32_t shard) override {
    Tracer::instance().attach("shard" + std::to_string(shard));
    auto contents = std::make_unique<store::ContentStore>();
    for (std::size_t p = 0; p < kPeers; ++p) {
      const auto peer = static_cast<session::PeerId>(p);
      if (session::shard_of(peer, content_of(p), kShards) != shard) continue;
      store::ContentConfig cfg;
      cfg.id = content_of(p);
      cfg.k = kK;
      cfg.payload_bytes = kPayload;
      contents->register_content(
          cfg, std::make_unique<TimedSink>(kK, kPayload, content_of(p),
                                           &tallies_[shard]));
    }
    session::EndpointConfig cfg;
    cfg.feedback = session::FeedbackMode::kNone;
    return std::make_unique<session::Endpoint>(cfg, std::move(contents));
  }

  bool pump(std::uint32_t /*shard*/, session::Endpoint& /*ep*/) override {
    return false;
  }

  /// Read after the shards were stopped.
  ShardTally& tally(std::uint32_t shard) { return tallies_[shard]; }

 private:
  std::vector<ShardTally> tallies_;
};

/// One set-up: the frame pool and the running shards.
struct Rig {
  explicit Rig(std::uint64_t seed) : pool(make_pool(seed)), app(pool, clock) {
    Span span(Op::kShardStart);
    session::ShardedConfig cfg;
    cfg.num_shards = kShards;
    sharded = std::make_unique<session::ShardedEndpoint>(cfg, app);
  }

  Pool pool;
  RoundClock clock;
  IngestApp app;
  std::unique_ptr<session::ShardedEndpoint> sharded;
};

}  // namespace

Result run_ingest_ring(const Options& options) {
  Tracer& tracer = Tracer::instance();
  Result result;
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    if (rep + 1 == kSetupReps && options.trace) {
      tracer.set_enabled(true);
      tracer.set_phase(Phase::kSetup);
      tracer.attach("router");
    }
    const Nanos t0 = now_ns();
    rig = std::make_unique<Rig>(options.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const Pool& pool = rig->pool;
  session::ShardedEndpoint& sharded = *rig->sharded;
  tracer.set_phase(Phase::kDiscard);

  const Nanos start = now_ns();
  const auto run_ns = static_cast<Nanos>(options.seconds * 1e9);
  const Nanos warm_end = start + std::min<Nanos>(1'000'000'000, run_ns / 10);
  const Nanos end = start + run_ns;

  wire::Frame scratch;
  std::uint64_t routed = 0;
  std::uint64_t route_false = 0;
  std::uint64_t route_false_window = 0;
  std::uint64_t first_round = kNoRound;
  std::uint64_t frames_at_window = 0;
  std::uint64_t router_fresh_at_window = 0;
  double bytes_window = 0.0;
  double payload_bytes_window = 0.0;
  Nanos t0 = 0;
  std::vector<std::pair<Nanos, double>> slice_marks;
  std::uint64_t g = 0;
  for (;; ++g) {
    const Nanos now = now_ns();
    if (first_round == kNoRound && now >= warm_end) {
      first_round = g;
      rig->clock.first_measured.store(g, std::memory_order_release);
      frames_at_window = sharded.frames_processed();
      router_fresh_at_window = WordArena::local().stats().fresh_blocks;
      t0 = now;
      slice_marks.emplace_back(now, static_cast<double>(frames_at_window));
      tracer.set_phase(Phase::kMeasure);
    }
    if (first_round != kNoRound && now >= end) break;
    if (first_round != kNoRound && now - slice_marks.back().first >= kSliceNs) {
      slice_marks.emplace_back(
          now, static_cast<double>(sharded.frames_processed()));
    }
    rig->clock.start[g % kClockRing].store(now, std::memory_order_release);
    const std::size_t pr = g % kPoolRounds;
    const std::size_t begin = pool.round_begin[pr];
    const std::size_t stop = pool.round_begin[pr + 1];
    if (first_round != kNoRound) {
      bytes_window += pool.round_bytes[pr];
      payload_bytes_window += static_cast<double>((stop - begin) * kPayload);
    }
    std::optional<Span> feed;
    for (std::size_t i = begin; i < stop; ++i) {
      if ((i - begin) % kFeedBatch == 0) {
        feed.reset();
        feed.emplace(Op::kFeed);
      }
      scratch.assign(pool.frames[i].bytes());
      const session::PeerId peer = pool.peers[i];
      for (;;) {
        bool ok = false;
        {
          Span span(Op::kRouteFrame, content_of(peer));
          ok = sharded.route_frame(peer, scratch);
        }
        if (ok) break;
        // Ring full: wait outside any span, so the wait reads as waiting.
        ++route_false;
        if (first_round != kNoRound) ++route_false_window;
        feed.reset();
        std::this_thread::yield();
        feed.emplace(Op::kFeed);
      }
      ++routed;
    }
  }
  rig->clock.end_measured.store(g, std::memory_order_release);
  while (sharded.frames_processed() < routed) std::this_thread::yield();
  const Nanos t_end = now_ns();
  const std::uint64_t frames_window = sharded.frames_processed() - frames_at_window;
  const std::uint64_t router_fresh =
      WordArena::local().stats().fresh_blocks - router_fresh_at_window;
  tracer.set_phase(Phase::kDiscard);
  sharded.stop();
  tracer.set_enabled(false);
  const double window_s = static_cast<double>(t_end - t0) / 1e9;

  std::uint64_t verified = 0;
  double frames_to_complete = 0.0;
  double decode_data_bytes = 0.0;
  std::vector<double> round_p50;
  std::vector<double> round_p90;
  std::uint64_t bad_frames = 0;
  std::uint64_t max_in = 0;
  double sum_in = 0.0;
  double arena_fresh = static_cast<double>(router_fresh);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ShardTally& t = rig->app.tally(s);
    t.close_round();
    result.attempted += t.attempted;
    result.failed += t.failed;
    verified += t.verified;
    frames_to_complete += t.frames_to_complete;
    decode_data_bytes += t.decode_data_bytes;
    round_p50.insert(round_p50.end(), t.round_p50.begin(), t.round_p50.end());
    round_p90.insert(round_p90.end(), t.round_p90.begin(), t.round_p90.end());
    const auto& report = sharded.report(s);
    bad_frames += report.stats.malformed_frames + report.stats.foreign_frames;
    max_in = std::max(max_in, report.frames_in);
    sum_in += static_cast<double>(report.frames_in);
    if (t.arena_marked) {
      arena_fresh += static_cast<double>(report.arena.fresh_blocks -
                                         t.arena_fresh_at_window);
    }
  }
  const std::uint64_t rounds = g - first_round;
  if (bad_frames != 0) {
    result.check_failures.push_back(std::to_string(bad_frames) +
                                    " malformed or foreign frames");
  }
  if (verified != rounds * kPeers) {
    result.check_failures.push_back(
        std::to_string(verified) + " of " + std::to_string(rounds * kPeers) +
        " measured decodes verified");
  }
  const double content_bytes = static_cast<double>(verified * kK * kPayload);

  result.e2e("setup_s", median(setup_s), "s");
  result.notes.push_back(setup_note(setup_s));
  // Rates are the median over 0.5 s slices of the routing window; goodput
  // scales the frame rate by the verified content per applied frame.
  const double frames_per_s = median_slice_rate(slice_marks);
  result.e2e("goodput_MBps",
             frames_per_s *
                 ratio(content_bytes, static_cast<double>(frames_window)) / 1e6,
             "MB/s");
  // Delivery quantiles are taken per round (one sample per conversation),
  // then the median over rounds and shards.
  result.e2e("delivery_ms_p50", median(round_p50), "ms");
  result.e2e("delivery_ms_p90", median(round_p90), "ms");
  result.e2e("frames_per_s", frames_per_s, "1/s");
  result.e2e("wire_bytes_per_content_byte", ratio(bytes_window, content_bytes),
             "ratio");
  result.e2e("coding_overhead",
             ratio(frames_to_complete - static_cast<double>(verified * kK),
                   static_cast<double>(verified * kK)),
             "ratio");
  result.e2e("peak_rss_MB", peak_rss_bytes() / 1e6, "MB");
  result.notes.push_back("rounds_measured=" + std::to_string(rounds));
  result.notes.push_back("delivery_ms_samples=" + std::to_string(verified) +
                         " in " + std::to_string(round_p90.size()) +
                         " shard-rounds");
  result.notes.push_back("frames_per_s_whole_window=" +
                         std::to_string(static_cast<double>(frames_window) /
                                        window_s));
  result.notes.push_back("pool_frames=" + std::to_string(pool.frames.size()));

  result.layer("session.route_full_retries",
               static_cast<double>(std::max(route_false, sharded.inbound_drops())),
               "count");
  result.layer("session.shard_imbalance",
               ratio(static_cast<double>(max_in), sum_in / kShards), "ratio");
  result.layer("session.bad_frames", static_cast<double>(bad_frames), "count");
  result.layer("lt.frames_per_decode",
               ratio(frames_to_complete, static_cast<double>(verified * kK)),
               "ratio");
  result.layer("lt.decode_data_bytes_per_content_byte",
               ratio(decode_data_bytes, content_bytes), "ratio");
  result.layer("wire.header_byte_share",
               ratio(bytes_window - payload_bytes_window, bytes_window), "ratio");
  result.layer("common.arena_fresh_blocks", arena_fresh, "count");

  if (options.trace) {
    const OpTable m = tracer.merged(Phase::kMeasure);
    const OpTable setup = tracer.merged(Phase::kSetup);
    const double routed_window = static_cast<double>(
        m[static_cast<std::size_t>(Op::kRouteFrame)].calls -
        route_false_window);
    result.layer("session.route_ns_per_frame",
                 total_ns_per(m, Op::kRouteFrame, routed_window), "ns");
    result.layer("lt.deliver_ns_per_frame", self_ns_per_call(m, Op::kDeliver),
                 "ns");
    result.layer("lt.encode_ns_per_frame", self_ns_per_call(setup, Op::kEncode),
                 "ns");
    result.layer("wire.serialize_ns_per_frame",
                 self_ns_per_call(setup, Op::kSerialize), "ns");
    add_trace_accounting(result, t_end - t0);
  }
  return result;
}

}  // namespace perfbench
