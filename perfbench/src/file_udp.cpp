// file_udp — bulk verified file delivery over loopback UDP.
//
// A seeder runs a 2-shard ShardedEndpoint behind one batched UdpTransport
// driven by this process's main thread (the I/O thread). Eight clients
// each own a socket and an Endpoint over LT sinks; one receiver thread
// serves all eight. Each client downloads files back to back (a closed
// loop): the seeder streams LT frames for (client, file) until the
// client's completion ack comes back, the client assembles and hashes the
// file, registers its next file and only then releases the ack, so the
// seeder never sends a frame for a content the client does not know.
//
// Files are seeded random bytes at 1 KB blocks, 16 KB to 1 MB (k = 16 to
// 1024): two files of each power-of-two size. Each client walks all
// fourteen in a fresh seeded order every cycle, so clients do not stay
// phase-locked on one pattern of concurrent large files for a whole run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "lt/lt_encoder.hpp"
#include "net/udp_transport.hpp"
#include "session/endpoint.hpp"
#include "session/sharded.hpp"
#include "store/chunker.hpp"
#include "store/content_store.hpp"
#include "timed_sink.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ltnc;

constexpr std::size_t kClients = 8;
constexpr std::uint32_t kShards = 2;
constexpr std::size_t kBlock = 1024;
constexpr std::size_t kSizesKB[] = {16, 32, 64, 128, 256, 512, 1024};
constexpr std::size_t kFilesPerSize = 2;
/// Content ids per client; (client, seq) maps to 1 + client·span + seq mod
/// span, which stays below 16384 (two varint bytes on the wire).
constexpr std::uint64_t kSeqSpan = 2000;
constexpr std::uint64_t kMinDeliveries = 100;
constexpr std::size_t kBatch = net::UdpTransport::kMaxBatch;
/// Rates are medians over slices of this length.
constexpr Nanos kSliceNs = 500'000'000;

struct PoolFile {
  std::vector<std::uint8_t> bytes;
  store::FileContent meta;
  std::vector<Payload> blocks;
};

/// Everything both ends derive from the seed. Read-only once built.
struct Plan {
  std::vector<PoolFile> files;
  std::vector<std::vector<std::size_t>> order;  ///< per client, kSeqSpan

  std::size_t file_index(std::size_t client, std::uint64_t seq) const {
    return order[client][seq % kSeqSpan];
  }
  const PoolFile& file(std::size_t client, std::uint64_t seq) const {
    return files[file_index(client, seq)];
  }
  static ContentId content_id(std::size_t client, std::uint64_t seq) {
    return static_cast<ContentId>(1 + client * kSeqSpan + seq % kSeqSpan);
  }
  /// Span id shared by every span of one delivery.
  static std::uint64_t delivery_id(std::size_t client, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(client + 1) << 32) | seq;
  }
};

Plan make_plan(std::uint64_t seed) {
  Plan plan;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  for (const std::size_t kb : kSizesKB) {
    for (std::size_t v = 0; v < kFilesPerSize; ++v) {
      PoolFile f;
      {
        Span span(Op::kInputGen);
        f.bytes.resize(kb * 1024);
        for (std::size_t i = 0; i < f.bytes.size(); i += 8) {
          const std::uint64_t word = rng.next();
          std::memcpy(f.bytes.data() + i, &word, 8);
        }
      }
      {
        Span span(Op::kChunk);
        f.meta = store::describe_file(
            "file-" + std::to_string(kb) + "k-" + std::to_string(v), f.bytes,
            kBlock);
        f.blocks = store::chunk_bytes(f.bytes, kBlock);
      }
      plan.files.push_back(std::move(f));
    }
  }
  plan.order.resize(kClients);
  std::vector<std::size_t> cycle(plan.files.size());
  for (std::size_t c = 0; c < kClients; ++c) {
    Rng order_rng(seed ^ (0xC11E47ULL + c));
    auto& o = plan.order[c];
    while (o.size() < kSeqSpan) {
      for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
      for (std::size_t i = cycle.size() - 1; i > 0; --i) {
        std::swap(cycle[i], cycle[order_rng.uniform(i + 1)]);
      }
      o.insert(o.end(), cycle.begin(), cycle.end());
    }
    o.resize(kSeqSpan);
  }
  return plan;
}

/// State the seeder shards and the I/O thread share.
struct SeederShared {
  std::array<std::atomic<std::uint64_t>, kClients> seq{};  ///< file served
  std::vector<std::atomic<Nanos>> offer_ns =
      std::vector<std::atomic<Nanos>>(kClients * kSeqSpan);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  std::atomic<Nanos>& offer_slot(std::size_t client, std::uint64_t seq) {
    return offer_ns[client * kSeqSpan + seq % kSeqSpan];
  }
};

/// Seeder side of each shard: registers the (client, file) contents whose
/// conversation hashes here, encodes and offers one frame per client per
/// pump, and on the client's ack expires the content and moves the client
/// to its next file (which may belong to the other shard).
class SeederApp final : public session::ShardApp {
 public:
  SeederApp(const Plan& plan, SeederShared& shared, std::uint64_t seed)
      : plan_(plan), shared_(shared), seed_(seed), state_(kShards) {}

  std::unique_ptr<session::Endpoint> make_endpoint(
      std::uint32_t shard) override {
    Tracer::instance().attach("seeder-shard" + std::to_string(shard));
    auto st = std::make_unique<ShardState>(seed_ ^ (0x5EED0000ULL + shard));
    {
      Span span(Op::kInputGen);
      st->encoders.reserve(plan_.files.size());
      for (const PoolFile& f : plan_.files) st->encoders.emplace_back(f.blocks);
    }
    st->started.fill(~std::uint64_t{0});
    state_[shard] = std::move(st);
    session::EndpointConfig cfg;
    cfg.feedback = session::FeedbackMode::kNone;
    return std::make_unique<session::Endpoint>(
        cfg, std::make_unique<store::ContentStore>());
  }

  bool pump(std::uint32_t shard, session::Endpoint& ep) override {
    if (!shared_.go.load(std::memory_order_acquire) ||
        shared_.stop.load(std::memory_order_relaxed)) {
      return false;
    }
    Span pump_span(Op::kPump);
    ShardState& st = *state_[shard];
    bool offered = false;
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::uint64_t seq = shared_.seq[c].load(std::memory_order_acquire);
      const ContentId id = Plan::content_id(c, seq);
      const auto peer = static_cast<session::PeerId>(c);
      if (session::shard_of(peer, id, kShards) != shard) continue;
      const std::uint64_t did = Plan::delivery_id(c, seq);
      const std::size_t fi = plan_.file_index(c, seq);
      if (st.started[c] != seq) {
        {
          Span span(Op::kContentSetup, did);
          store::ContentConfig cfg;
          cfg.id = id;
          cfg.k = plan_.files[fi].meta.blocks;
          cfg.payload_bytes = kBlock;
          ep.contents().register_content(cfg, nullptr);
        }
        shared_.offer_slot(c, seq).store(now_ns(), std::memory_order_release);
        st.started[c] = seq;
      }
      if (ep.peer_completed(peer, id)) {
        {
          Span span(Op::kContentSetup, did);
          ep.expire_content(id);
        }
        shared_.seq[c].store(seq + 1, std::memory_order_release);
        continue;
      }
      CodedPacket packet;
      {
        Span span(Op::kEncode, did);
        packet = st.encoders[fi].encode(st.rng);
      }
      {
        Span span(Op::kOfferPacket, did);
        ep.offer_packet(peer, id, packet);
      }
      offered = true;
    }
    return offered;
  }

 private:
  struct ShardState {
    explicit ShardState(std::uint64_t rng_seed) : rng(rng_seed) {}
    std::vector<lt::LtEncoder> encoders;  ///< one per pool file
    Rng rng;
    std::array<std::uint64_t, kClients> started{};  ///< seq registered here
  };

  const Plan& plan_;
  SeederShared& shared_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<ShardState>> state_;
};

/// What the receiver thread measured (read after it was joined).
struct ReceiverTally {
  std::uint64_t attempted = 0;  ///< decodes finished (whole run)
  std::uint64_t failed = 0;     ///< hash mismatches (whole run)
  // Measurement window only:
  std::uint64_t verified = 0;
  double verified_bytes = 0.0;
  std::vector<double> slice_bytes;   ///< verified bytes per full slice
  std::vector<double> slice_frames;  ///< frames handled per full slice
  LogHistogram delivery_ms;
  double frames_to_complete = 0.0;
  double blocks = 0.0;
  double decode_data_bytes = 0.0;
  std::uint64_t frames_handled = 0;
  std::uint64_t ack_bytes = 0;
  // Whole run:
  std::uint64_t post_completion = 0;
  std::uint64_t frames_total = 0;
  std::uint64_t bad_frames = 0;
  net::UdpStats socket_totals;
};

/// One set-up of the whole rig: pool, sockets, seeder shards, receiver
/// thread and its endpoints. Destruction stops and joins everything.
class Rig {
 public:
  explicit Rig(std::uint64_t seed)
      : plan_(make_plan(seed)), app_(plan_, shared_, seed) {
    std::string error;
    {
      Span span(Op::kSockets);
      for (std::size_t c = 0; c < kClients; ++c) {
        net::UdpConfig cfg;
        cfg.bind_address = "127.0.0.1";
        auto t = net::UdpTransport::open(cfg, &error);
        if (t == nullptr) {
          error_ = "cannot open client socket: " + error;
          return;
        }
        clients_.push_back(std::move(t));
      }
      net::UdpConfig cfg;
      cfg.bind_address = "127.0.0.1";
      seeder_ = net::UdpTransport::open(cfg, &error);
      if (seeder_ == nullptr) {
        error_ = "cannot open seeder socket: " + error;
        return;
      }
      for (std::size_t c = 0; c < kClients; ++c) {
        if (seeder_->add_peer("127.0.0.1", clients_[c]->local_port()) !=
            static_cast<net::UdpTransport::PeerIndex>(c)) {
          error_ = "peer interning broke";
          return;
        }
      }
    }
    {
      Span span(Op::kShardStart);
      session::ShardedConfig cfg;
      cfg.num_shards = kShards;
      sharded_ = std::make_unique<session::ShardedEndpoint>(cfg, app_);
    }
    rx_thread_ = std::thread([this] { receiver_main(); });
    while (!rx_ready_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  ~Rig() { stop(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  const std::string& error() const { return error_; }

  /// Runs the I/O loop from now until `end`; spans before `window_start`
  /// are discarded, the measured window is [window_start, end).
  void run(Nanos window_start, Nanos end);
  /// Stops offering, joins the shards and the receiver thread.
  void stop();

  const ReceiverTally& rx() const { return rx_; }
  const net::UdpStats& seeder_stats() const { return seeder_->stats(); }
  net::UdpStats seeder_window_start() const { return seeder_at_window_; }
  std::uint64_t route_false() const { return route_false_; }
  std::uint64_t frames_polled_window() const { return polled_window_; }
  const session::ShardedEndpoint& sharded() const { return *sharded_; }

 private:
  void receiver_main();

  Plan plan_;
  SeederShared shared_;
  SeederApp app_;
  std::vector<std::unique_ptr<net::UdpTransport>> clients_;
  std::unique_ptr<net::UdpTransport> seeder_;
  std::unique_ptr<session::ShardedEndpoint> sharded_;
  std::string error_;

  // Receiver thread control.
  std::atomic<bool> rx_ready_{false};
  std::atomic<bool> rx_quit_{false};
  std::atomic<Nanos> window_start_{0};
  std::atomic<Nanos> window_end_{0};
  ReceiverTally rx_;
  std::thread rx_thread_;

  // I/O-thread figures.
  std::uint64_t route_false_ = 0;
  std::uint64_t polled_window_ = 0;
  net::UdpStats seeder_at_window_;
  bool stopped_ = false;
};

void Rig::run(Nanos window_start, Nanos end) {
  Tracer& tracer = Tracer::instance();
  window_start_.store(window_start, std::memory_order_relaxed);
  window_end_.store(end, std::memory_order_relaxed);
  tracer.set_phase(Phase::kDiscard);
  shared_.go.store(true, std::memory_order_release);

  std::vector<wire::Frame> rx_frames(kBatch);
  std::vector<net::UdpTransport::PeerIndex> rx_peers(kBatch);
  std::vector<wire::Frame> tx_frames(kBatch);
  std::vector<net::UdpTransport::TxItem> tx_items(kBatch);
  std::size_t filled = 0;
  bool in_window = false;

  for (;;) {
    const Nanos now = now_ns();
    if (now >= end) break;
    if (!in_window && now >= window_start) {
      in_window = true;
      seeder_at_window_ = seeder_->stats();
      tracer.set_phase(Phase::kMeasure);
    }
    bool any = false;

    std::size_t received = 0;
    {
      Span span(Op::kRecvBatch);
      received = seeder_->recv_batch(rx_frames, rx_peers);
    }
    for (std::size_t i = 0; i < received; ++i) {
      bool routed = false;
      {
        Span span(Op::kRouteFrame);
        routed = sharded_->route_frame(rx_peers[i], rx_frames[i]);
      }
      if (!routed) ++route_false_;
      any = true;
    }

    for (std::uint32_t s = 0; s < kShards && filled < kBatch; ++s) {
      session::PeerId dst = 0;
      for (;;) {
        bool got = false;
        {
          Span span(Op::kPollTransmit);
          got = sharded_->poll_transmit(s, dst, tx_frames[filled]);
        }
        if (!got) break;
        tx_items[filled] = {dst, tx_frames[filled].bytes()};
        ++filled;
        if (in_window) ++polled_window_;
        if (filled == kBatch) break;
      }
    }
    if (filled > 0) {
      std::size_t sent = 0;
      {
        Span span(Op::kSendBatch);
        sent = seeder_->send_batch({tx_items.data(), filled});
      }
      // A full socket buffer (EAGAIN) keeps the rest for the next pass.
      for (std::size_t i = sent; i < filled; ++i) {
        std::swap(tx_frames[i - sent], tx_frames[i]);
        tx_items[i - sent] = {tx_items[i].peer, tx_frames[i - sent].bytes()};
      }
      filled -= sent;
      any = any || sent > 0;
    }
    if (!any) std::this_thread::yield();
  }
  tracer.set_phase(Phase::kDiscard);
}

void Rig::stop() {
  if (stopped_) return;
  stopped_ = true;
  shared_.stop.store(true, std::memory_order_relaxed);
  if (sharded_ != nullptr) sharded_->stop();
  if (rx_thread_.joinable()) {
    // Let the clients drain what is still in their socket buffers.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rx_quit_.store(true, std::memory_order_release);
    rx_thread_.join();
  }
}

void Rig::receiver_main() {
  Tracer::instance().attach("receivers");
  {
    session::EndpointConfig cfg;
    cfg.feedback = session::FeedbackMode::kNone;
    cfg.announce_completion = true;
    cfg.response_timeout = 1;
    cfg.max_retries = 7;

    struct Client {
      std::unique_ptr<session::Endpoint> ep;
      std::uint64_t seq = 0;
      TimedSink* sink = nullptr;  ///< current delivery's sink
      bool has_prev = false;      ///< previous content still registered
      ContentId prev_id = 0;
      TimedSink* prev_sink = nullptr;
      bool locked = false;  ///< feedback channel to the seeder acquired
    };
    std::vector<Client> clients(kClients);

    const auto register_delivery = [&](std::size_t c, Client& cl) {
      Span span(Op::kContentSetup, Plan::delivery_id(c, cl.seq));
      const PoolFile& f = plan_.file(c, cl.seq);
      store::ContentConfig cc;
      cc.id = Plan::content_id(c, cl.seq);
      cc.k = f.meta.blocks;
      cc.payload_bytes = kBlock;
      auto sink = std::make_unique<TimedSink>(f.meta.blocks, kBlock,
                                              Plan::delivery_id(c, cl.seq));
      cl.sink = sink.get();
      cl.ep->contents().register_content(cc, std::move(sink));
    };

    for (std::size_t c = 0; c < kClients; ++c) {
      clients[c].ep = std::make_unique<session::Endpoint>(
          cfg, std::make_unique<store::ContentStore>());
      register_delivery(c, clients[c]);
    }
    rx_ready_.store(true, std::memory_order_release);

    std::vector<wire::Frame> frames(kBatch);
    std::vector<net::UdpTransport::PeerIndex> peers(kBatch);
    wire::Frame ack;
    std::uint64_t iterations = 0;
    bool in_window = false;
    bool past_window = false;
    std::uint64_t ack_bytes_at_start = 0;
    std::uint64_t ack_bytes_at_end = 0;
    const auto ack_bytes_now = [&] {
      std::uint64_t total = 0;
      for (const auto& t : clients_) total += t->stats().bytes_sent;
      return total;
    };

    const auto slice_of = [&](Nanos t) -> std::size_t {
      const Nanos start = window_start_.load(std::memory_order_relaxed);
      return t < start ? rx_.slice_bytes.size()
                       : static_cast<std::size_t>((t - start) / kSliceNs);
    };

    const auto finish_delivery = [&](std::size_t c, Client& cl,
                                     bool count) {
      const PoolFile& f = plan_.file(c, cl.seq);
      const std::uint64_t did = Plan::delivery_id(c, cl.seq);
      TimedSink& sink = *cl.sink;
      bool ok = false;
      {
        Span span(Op::kVerifyBytes, did);
        const std::vector<std::uint8_t> bytes = store::assemble_bytes(
            f.meta.size_bytes, kBlock, [&](std::size_t i) -> const Payload& {
              return sink.decoder().native_payload(
                  static_cast<NativeIndex>(i));
            });
        ok = store::hash_bytes(bytes) == f.meta.hash;
      }
      const Nanos done = now_ns();
      ++rx_.attempted;
      if (!ok) ++rx_.failed;
      if (count && ok) {
        ++rx_.verified;
        rx_.verified_bytes += static_cast<double>(f.meta.size_bytes);
        const Nanos offered = shared_.offer_slot(c, cl.seq).load(
            std::memory_order_acquire);
        rx_.delivery_ms.add(static_cast<double>(done - offered) / 1e6);
        const std::size_t slice = slice_of(done);
        if (slice < rx_.slice_bytes.size()) {
          rx_.slice_bytes[slice] += static_cast<double>(f.meta.size_bytes);
        }
        rx_.frames_to_complete += static_cast<double>(sink.frames_to_complete());
        rx_.blocks += static_cast<double>(f.meta.blocks);
        rx_.decode_data_bytes += sink.decode_ops().data_bytes();
      }
      // Keep this content registered (its ack may need re-announcing);
      // retire the one before it.
      if (cl.has_prev) {
        Span span(Op::kContentSetup, did);
        rx_.post_completion += cl.prev_sink->post_completion();
        cl.ep->expire_content(cl.prev_id);
      }
      cl.has_prev = true;
      cl.prev_id = Plan::content_id(c, cl.seq);
      cl.prev_sink = cl.sink;
      ++cl.seq;
      register_delivery(c, cl);
    };

    while (!rx_quit_.load(std::memory_order_acquire)) {
      const Nanos now = now_ns();
      if (!in_window && now >= window_start_.load(std::memory_order_relaxed) &&
          window_start_.load(std::memory_order_relaxed) != 0) {
        in_window = true;
        ack_bytes_at_start = ack_bytes_now();
        const auto slices = static_cast<std::size_t>(
            (window_end_.load(std::memory_order_relaxed) -
             window_start_.load(std::memory_order_relaxed)) /
            kSliceNs);
        rx_.slice_bytes.assign(slices, 0.0);
        rx_.slice_frames.assign(slices, 0.0);
      }
      if (in_window && !past_window &&
          now >= window_end_.load(std::memory_order_relaxed)) {
        past_window = true;
        ack_bytes_at_end = ack_bytes_now();
      }
      const bool counting = in_window && !past_window;
      bool any = false;
      for (std::size_t c = 0; c < kClients; ++c) {
        Client& cl = clients[c];
        std::size_t n = 0;
        {
          Span span(Op::kRecvBatch);
          n = clients_[c]->recv_batch(frames, peers);
        }
        rx_.frames_total += n;
        if (counting) {
          rx_.frames_handled += n;
          const std::size_t slice = slice_of(now);
          if (slice < rx_.slice_frames.size()) {
            rx_.slice_frames[slice] += static_cast<double>(n);
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          {
            Span span(Op::kHandleFrame, Plan::delivery_id(c, cl.seq));
            cl.ep->handle_frame(0, frames[i].bytes());
          }
          if (cl.sink->complete()) finish_delivery(c, cl, counting);
        }
        any = any || n > 0;
        if (!cl.locked) cl.locked = clients_[c]->set_peer_to_last_sender();
        if (cl.locked) {
          session::PeerId dst = 0;
          for (;;) {
            bool got = false;
            {
              Span span(Op::kPollTransmit);
              got = cl.ep->poll_transmit(dst, ack);
            }
            if (!got) break;
            Span span(Op::kSendAck);
            clients_[c]->send(ack.bytes());
          }
        }
      }
      if (++iterations % 1024 == 0) {
        for (auto& cl : clients) cl.ep->tick(iterations / 1024);
      }
      if (!any) std::this_thread::yield();
    }
    if (!past_window) ack_bytes_at_end = ack_bytes_now();
    rx_.ack_bytes = ack_bytes_at_end - ack_bytes_at_start;
    for (const Client& cl : clients) {
      rx_.post_completion += cl.ep->stats().expired_frames;
      if (cl.has_prev) rx_.post_completion += cl.prev_sink->post_completion();
      rx_.bad_frames +=
          cl.ep->stats().malformed_frames + cl.ep->stats().foreign_frames;
    }
    for (const auto& t : clients_) {
      const net::UdpStats& s = t->stats();
      rx_.socket_totals.recv_calls += s.recv_calls;
      rx_.socket_totals.recv_would_block += s.recv_would_block;
      rx_.socket_totals.frames_received += s.frames_received;
      rx_.socket_totals.bytes_received += s.bytes_received;
    }
  }
  WordArena::reclaim_local();
}

}  // namespace

Result run_file_udp(const Options& options) {
  Tracer& tracer = Tracer::instance();
  Result result;
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    const bool last = rep + 1 == kSetupReps;
    if (last && options.trace) {
      tracer.set_enabled(true);
      tracer.set_phase(Phase::kSetup);
      tracer.attach("io");
    }
    const Nanos t0 = now_ns();
    rig = std::make_unique<Rig>(options.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!rig->error().empty()) {
      result.check_failures.push_back(rig->error());
      return result;
    }
  }

  const Nanos start = now_ns();
  const auto run_ns = static_cast<Nanos>(options.seconds * 1e9);
  const Nanos warmup = std::min<Nanos>(1'000'000'000, run_ns / 10);
  const Nanos window_start = start + warmup;
  const Nanos end = start + run_ns;
  rig->run(window_start, end);
  rig->stop();
  tracer.set_enabled(false);
  const double window_s = static_cast<double>(end - window_start) / 1e9;

  const ReceiverTally& rx = rig->rx();
  const net::UdpStats& seeder = rig->seeder_stats();
  const net::UdpStats at_window = rig->seeder_window_start();
  const double seeder_bytes_window =
      static_cast<double>(seeder.bytes_sent - at_window.bytes_sent);
  const double seeder_frames_window =
      static_cast<double>(seeder.frames_sent - at_window.frames_sent);

  std::uint64_t bad_frames = rx.bad_frames;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const auto& st = rig->sharded().report(s).stats;
    bad_frames += st.malformed_frames + st.foreign_frames;
  }

  result.attempted = rx.attempted;
  result.failed = rx.failed;
  if (bad_frames != 0) {
    result.check_failures.push_back(std::to_string(bad_frames) +
                                    " malformed or foreign frames");
  }
  if (rx.verified < kMinDeliveries) {
    result.check_failures.push_back(
        "only " + std::to_string(rx.verified) + " verified deliveries (need " +
        std::to_string(kMinDeliveries) + ")");
  }

  result.e2e("setup_s", median(setup_s), "s");
  result.notes.push_back(setup_note(setup_s));
  // Rates are medians over the window's full 0.5 s slices.
  const double slice_s = static_cast<double>(kSliceNs) / 1e9;
  result.e2e("goodput_MBps", median(rx.slice_bytes) / 1e6 / slice_s, "MB/s");
  result.e2e("delivery_ms_p50", rx.delivery_ms.quantile(0.5), "ms");
  result.e2e("delivery_ms_p90", rx.delivery_ms.quantile(0.9), "ms");
  result.e2e("frames_per_s", median(rx.slice_frames) / slice_s, "1/s");
  result.e2e("wire_bytes_per_content_byte",
             ratio(seeder_bytes_window + static_cast<double>(rx.ack_bytes),
                   rx.verified_bytes),
             "ratio");
  result.e2e("coding_overhead",
             ratio(rx.frames_to_complete - rx.blocks, rx.blocks), "ratio");
  result.e2e("peak_rss_MB", peak_rss_bytes() / 1e6, "MB");
  result.notes.push_back("deliveries_verified_in_window=" +
                         std::to_string(rx.verified));
  result.notes.push_back("delivery_ms_samples=" +
                         std::to_string(rx.delivery_ms.count()));
  result.notes.push_back("goodput_MBps_whole_window=" +
                         std::to_string(rx.verified_bytes / 1e6 / window_s));

  // Counter-based per-layer figures (traced and untraced runs alike).
  result.layer("net.frames_per_send_call", seeder.frames_per_send_call(),
               "count");
  result.layer("net.frames_per_recv_call", rx.socket_totals.frames_per_recv_call(),
               "count");
  result.layer("net.loopback_loss_ratio",
               1.0 - ratio(static_cast<double>(rx.socket_totals.frames_received),
                           static_cast<double>(seeder.frames_sent)),
               "ratio");
  result.layer("net.recv_idle_share",
               ratio(static_cast<double>(rx.socket_totals.recv_would_block),
                     static_cast<double>(rx.socket_totals.recv_calls)),
               "ratio");
  result.layer("session.route_full_retries",
               static_cast<double>(std::max(rig->route_false(),
                                            rig->sharded().inbound_drops())),
               "count");
  std::uint64_t max_in = 0;
  double sum_in = 0.0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    max_in = std::max(max_in, rig->sharded().report(s).frames_in);
    sum_in += static_cast<double>(rig->sharded().report(s).frames_in);
  }
  result.layer("session.shard_imbalance",
               ratio(static_cast<double>(max_in), sum_in / kShards), "ratio");
  result.layer("session.post_completion_frame_share",
               ratio(static_cast<double>(rx.post_completion),
                     static_cast<double>(rx.frames_total)),
               "ratio");
  result.layer("session.bad_frames", static_cast<double>(bad_frames), "count");
  result.layer("lt.frames_per_decode", ratio(rx.frames_to_complete, rx.blocks),
               "ratio");
  result.layer("lt.decode_data_bytes_per_content_byte",
               ratio(rx.decode_data_bytes, rx.blocks * kBlock), "ratio");
  result.layer("wire.header_byte_share",
               ratio(seeder_bytes_window - seeder_frames_window * kBlock,
                     seeder_bytes_window),
               "ratio");

  if (options.trace) {
    const OpTable m = tracer.merged(Phase::kMeasure);
    const OpTable setup = tracer.merged(Phase::kSetup);
    result.layer("net.send_batch_ns_per_frame",
                 total_ns_per(m, Op::kSendBatch, seeder_frames_window), "ns");
    result.layer("net.recv_batch_ns_per_frame",
                 total_ns_per(m, Op::kRecvBatch,
                              static_cast<double>(rx.frames_handled)),
                 "ns");
    result.layer("session.route_ns_per_frame",
                 self_ns_per_call(m, Op::kRouteFrame), "ns");
    result.layer("session.poll_transmit_ns_per_frame",
                 total_ns_per(m, Op::kPollTransmit,
                              static_cast<double>(rig->frames_polled_window())),
                 "ns");
    result.layer("session.offer_ns_per_frame",
                 self_ns_per_call(m, Op::kOfferPacket), "ns");
    result.layer("session.handle_frame_self_ns",
                 self_ns_per_call(m, Op::kHandleFrame), "ns");
    result.layer("lt.encode_ns_per_frame", self_ns_per_call(m, Op::kEncode),
                 "ns");
    result.layer("lt.deliver_ns_per_frame", self_ns_per_call(m, Op::kDeliver),
                 "ns");
    result.layer("store.verify_ns_per_byte",
                 total_ns_per(m, Op::kVerifyBytes, rx.verified_bytes), "ns");
    double chunked = 0.0;
    for (const std::size_t kb : kSizesKB) {
      chunked += static_cast<double>(kb * 1024 * kFilesPerSize);
    }
    result.layer("store.chunk_ns_per_byte",
                 total_ns_per(setup, Op::kChunk, chunked), "ns");
    add_trace_accounting(result, end - window_start);
  }
  return result;
}

}  // namespace perfbench
