// SpscFrameRing: FIFO order and capacity semantics single-threaded, then
// a two-thread randomized push/pop stress asserting order, zero frame
// loss, byte integrity, and — the cross-thread extension of the
// steady_state_alloc_test discipline — arena lease balance at shutdown
// summed over every participating thread (ring frames migrate between
// arenas by ownership transfer, so only the *sum* balances).
#include "net/frame_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::net {
namespace {

/// Stamps a frame with its sequence number plus a size-varying pattern.
void fill_frame(wire::Frame& frame, std::uint64_t seq) {
  const std::size_t size = 16 + (seq % 5) * 64;  // several arena classes
  frame.resize(size);
  std::memcpy(frame.data(), &seq, sizeof(seq));
  for (std::size_t i = sizeof(seq); i < size; ++i) {
    frame.data()[i] = static_cast<std::uint8_t>(seq * 31 + i);
  }
}

/// Verifies the stamp; returns the sequence number.
std::uint64_t check_frame(const wire::Frame& frame) {
  std::uint64_t seq = 0;
  EXPECT_GE(frame.size(), sizeof(seq));
  std::memcpy(&seq, frame.data(), sizeof(seq));
  EXPECT_EQ(frame.size(), 16 + (seq % 5) * 64);
  for (std::size_t i = sizeof(seq); i < frame.size(); ++i) {
    if (frame.data()[i] != static_cast<std::uint8_t>(seq * 31 + i)) {
      ADD_FAILURE() << "corrupt byte " << i << " of frame " << seq;
      break;
    }
  }
  return seq;
}

/// Signed lease-balance view of an arena stats delta.
struct ArenaDelta {
  std::int64_t leases = 0;
  std::int64_t releases = 0;
  std::int64_t live_words = 0;

  static ArenaDelta between(const WordArena::Stats& before,
                            const WordArena::Stats& after) {
    ArenaDelta d;
    d.leases = static_cast<std::int64_t>(after.leases - before.leases);
    d.releases = static_cast<std::int64_t>(after.releases - before.releases);
    // live_words wraps per-thread when buffers migrate; the modular
    // subtraction reinterpreted as signed is exactly the signed delta.
    d.live_words =
        static_cast<std::int64_t>(after.live_words - before.live_words);
    return d;
  }

  ArenaDelta& operator+=(const ArenaDelta& o) {
    leases += o.leases;
    releases += o.releases;
    live_words += o.live_words;
    return *this;
  }
};

TEST(Frame, ReserveGrowsInlineIntoLeasedKeepingBytes) {
  wire::Frame frame;
  const std::uint8_t head[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  frame.append(head, sizeof(head));  // fits the inline limbs
  const std::uint64_t leases = WordArena::local().stats().leases;
  frame.reserve(200);  // inline -> leased
  EXPECT_EQ(WordArena::local().stats().leases, leases + 1);
  EXPECT_GE(frame.capacity(), 200u);
  ASSERT_EQ(frame.size(), sizeof(head));
  EXPECT_EQ(std::memcmp(frame.data(), head, sizeof(head)), 0);
  frame.append(head, sizeof(head));
  EXPECT_EQ(std::memcmp(frame.data() + sizeof(head), head, sizeof(head)), 0);
}

TEST(SpscFrameRing, SmallFeedbackFrameSurvivesSwapRoundTrip) {
  // A feedback frame fits inline, so crossing the ring moves its bytes
  // (not a block pointer) between frame objects.
  SpscFrameRing ring(4);
  wire::Frame frame;
  wire::serialize_feedback(wire::MessageType::kProceed, 0x1234, frame);
  ASSERT_LE(frame.size(), 16u);
  const std::vector<std::uint8_t> sent(frame.bytes().begin(),
                                       frame.bytes().end());
  ASSERT_TRUE(ring.try_push(7, frame));
  wire::Frame out(256);  // leased spare, swapped into the slot
  std::uint32_t peer = 0;
  ASSERT_TRUE(ring.try_pop(peer, out));
  EXPECT_EQ(peer, 7u);
  ASSERT_EQ(out.size(), sent.size());
  EXPECT_EQ(std::memcmp(out.data(), sent.data(), sent.size()), 0);
  wire::MessageType type{};
  std::uint64_t token = 0;
  ASSERT_EQ(wire::deserialize_feedback(out.bytes(), type, token),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(type, wire::MessageType::kProceed);
  EXPECT_EQ(token, 0x1234u);
}

TEST(SpscFrameRing, FifoOrderAndPeerTagsSingleThread) {
  SpscFrameRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  wire::Frame frame;
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    fill_frame(frame, seq);
    ASSERT_TRUE(ring.try_push(static_cast<std::uint32_t>(seq * 3), frame));
  }
  EXPECT_EQ(ring.size_approx(), 6u);
  std::uint32_t peer = 0;
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    ASSERT_TRUE(ring.try_pop(peer, frame));
    EXPECT_EQ(peer, seq * 3);
    EXPECT_EQ(check_frame(frame), seq);
  }
  EXPECT_FALSE(ring.try_pop(peer, frame));
}

TEST(SpscFrameRing, FullRingRefusesPushAndKeepsFrame) {
  SpscFrameRing ring(3);  // rounds up to 4
  EXPECT_EQ(ring.capacity(), 4u);
  wire::Frame frame;
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    fill_frame(frame, seq);
    ASSERT_TRUE(ring.try_push(0, frame));
  }
  fill_frame(frame, 99);
  EXPECT_FALSE(ring.try_push(0, frame));
  EXPECT_EQ(check_frame(frame), 99u) << "failed push must not disturb the frame";
  // Popping one slot re-opens the ring.
  std::uint32_t peer = 0;
  wire::Frame out;
  ASSERT_TRUE(ring.try_pop(peer, out));
  EXPECT_TRUE(ring.try_push(0, frame));
}

TEST(SpscFrameRing, StorageRecirculatesThroughTheRing) {
  // After one full revolution every push swaps against a previously
  // consumed buffer, so the arena sees no fresh leases at steady state —
  // the SimChannel spares discipline, via the ring slots themselves.
  SpscFrameRing ring(4);
  wire::Frame push_scratch;
  wire::Frame pop_scratch;
  std::uint32_t peer = 0;
  // Warm-up must run the full (buffers × size-classes) rotation: six
  // buffers circulate (4 slots + 2 scratch) and five sizes cycle, so
  // every buffer needs lcm-scale iterations to have grown to the largest
  // class before the measured run.
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    fill_frame(push_scratch, seq % 5);  // cycle every size class
    ASSERT_TRUE(ring.try_push(0, push_scratch));
    ASSERT_TRUE(ring.try_pop(peer, pop_scratch));
  }
  const WordArena::Stats before = WordArena::local().stats();
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    fill_frame(push_scratch, seq % 5);
    ASSERT_TRUE(ring.try_push(0, push_scratch));
    ASSERT_TRUE(ring.try_pop(peer, pop_scratch));
  }
  const WordArena::Stats after = WordArena::local().stats();
  EXPECT_EQ(after.fresh_blocks, before.fresh_blocks)
      << "steady-state ring traffic must not touch the heap";
}

TEST(SpscFrameRing, TwoThreadRandomizedStressKeepsOrderFramesAndLeases) {
  constexpr std::uint64_t kFrames = 50'000;
  constexpr std::size_t kRingCapacity = 64;

  ArenaDelta producer_delta;
  ArenaDelta consumer_delta;
  std::atomic<std::uint64_t> received{0};
  const WordArena::Stats main_before = WordArena::local().stats();
  {
    SpscFrameRing ring(kRingCapacity);

    std::thread producer([&] {
      const WordArena::Stats before = WordArena::local().stats();
      {
        Rng rng(101);
        wire::Frame frame;
        std::uint64_t seq = 0;
        while (seq < kFrames) {
          // Randomized burst, then a breather — exercises full-ring,
          // empty-ring and mid-flight interleavings.
          std::uint64_t burst = 1 + rng.uniform(17);
          while (burst-- > 0 && seq < kFrames) {
            fill_frame(frame, seq);
            if (ring.try_push(static_cast<std::uint32_t>(seq & 0xFF),
                              frame)) {
              ++seq;
            } else {
              std::this_thread::yield();
            }
          }
          if (rng.chance(0.3)) std::this_thread::yield();
        }
      }
      producer_delta =
          ArenaDelta::between(before, WordArena::local().stats());
      WordArena::reclaim_local();
    });

    std::thread consumer([&] {
      const WordArena::Stats before = WordArena::local().stats();
      {
        Rng rng(202);
        wire::Frame frame;
        std::uint32_t peer = 0;
        std::uint64_t expected = 0;
        while (expected < kFrames) {
          std::uint64_t burst = 1 + rng.uniform(23);
          while (burst-- > 0 && expected < kFrames) {
            if (!ring.try_pop(peer, frame)) {
              std::this_thread::yield();
              continue;
            }
            // FIFO, no loss, no duplication: sequence numbers arrive
            // exactly in order.
            EXPECT_EQ(check_frame(frame), expected);
            EXPECT_EQ(peer, static_cast<std::uint32_t>(expected & 0xFF));
            ++expected;
          }
          if (rng.chance(0.3)) std::this_thread::yield();
        }
        received.store(expected);
      }
      consumer_delta =
          ArenaDelta::between(before, WordArena::local().stats());
      WordArena::reclaim_local();
    });

    producer.join();
    consumer.join();
  }  // ring dies on the main thread, releasing the in-slot spares here

  EXPECT_EQ(received.load(), kFrames);

  ArenaDelta total = ArenaDelta::between(main_before, WordArena::local().stats());
  total += producer_delta;
  total += consumer_delta;
  EXPECT_EQ(total.leases, total.releases)
      << "every arena lease must be matched by a release somewhere";
  EXPECT_EQ(total.live_words, 0)
      << "no frame storage may outlive the ring and its threads";
}

}  // namespace
}  // namespace ltnc::net
