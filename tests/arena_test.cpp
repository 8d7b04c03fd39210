// WordArena lease/recycle invariants: blocks are zero-filled on lease even
// after a dirty release, outstanding leases never alias, freed blocks are
// recycled rather than re-allocated, and WordBuf value semantics hold.
#include "common/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

namespace ltnc {
namespace {

TEST(WordArena, LeaseIsZeroFilledEvenAfterDirtyRelease) {
  WordArena arena;
  const std::size_t words = 33;
  std::uint64_t* p = arena.lease(words);
  ASSERT_NE(p, nullptr);
  for (std::size_t i = 0; i < words; ++i) EXPECT_EQ(p[i], 0u);
  // Dirty the block, release it, lease the same class again: the arena
  // must hand the block back (recycled) and it must be zeroed again.
  for (std::size_t i = 0; i < words; ++i) p[i] = ~0ULL;
  arena.release(p, words);
  std::uint64_t* q = arena.lease(words);
  EXPECT_EQ(q, p) << "same-class lease should recycle the freed block";
  for (std::size_t i = 0; i < words; ++i) EXPECT_EQ(q[i], 0u);
  arena.release(q, words);
}

TEST(WordArena, OutstandingLeasesNeverAlias) {
  WordArena arena;
  const std::size_t words = 16;
  std::vector<std::uint64_t*> leases;
  std::set<std::uint64_t*> distinct;
  for (int i = 0; i < 64; ++i) {
    std::uint64_t* p = arena.lease(words);
    // Stamp the whole block with a lease-unique value.
    for (std::size_t w = 0; w < words; ++w) p[w] = 0x1000u + i;
    leases.push_back(p);
    distinct.insert(p);
  }
  EXPECT_EQ(distinct.size(), leases.size());
  // No stamp was clobbered by a later lease.
  for (std::size_t i = 0; i < leases.size(); ++i) {
    for (std::size_t w = 0; w < words; ++w) {
      EXPECT_EQ(leases[i][w], 0x1000u + i);
    }
  }
  for (std::uint64_t* p : leases) arena.release(p, words);
}

TEST(WordArena, RecyclingServesLeasesWithoutFreshBlocks) {
  WordArena arena;
  // Warm the free list, then verify a burst of lease/release cycles is
  // served entirely from recycling.
  for (int i = 0; i < 4; ++i) arena.release(arena.lease(100), 100);
  const std::uint64_t fresh_before = arena.stats().fresh_blocks;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t* p = arena.lease(100);
    arena.release(p, 100);
  }
  EXPECT_EQ(arena.stats().fresh_blocks, fresh_before);
  EXPECT_GE(arena.stats().recycled_blocks, 1000u);
}

TEST(WordArena, SizeClassesShareBlocks) {
  WordArena arena;
  // 65..128 words round to the same power-of-two class.
  std::uint64_t* p = arena.lease(65);
  arena.release(p, 65);
  std::uint64_t* q = arena.lease(128);
  EXPECT_EQ(q, p);
  arena.release(q, 128);
}

TEST(WordArena, ZeroWordLeaseIsNull) {
  WordArena arena;
  EXPECT_EQ(arena.lease(0), nullptr);
  arena.release(nullptr, 0);  // must be a no-op
  EXPECT_EQ(arena.stats().leases, 0u);
}

TEST(WordArena, StatsTrackLiveWords) {
  WordArena arena;
  std::uint64_t* a = arena.lease(10);
  std::uint64_t* b = arena.lease(20);
  EXPECT_EQ(arena.stats().live_words, 30u);
  arena.release(a, 10);
  EXPECT_EQ(arena.stats().live_words, 20u);
  arena.release(b, 20);
  EXPECT_EQ(arena.stats().live_words, 0u);
}

TEST(WordBuf, ValueSemantics) {
  WordBuf a(8);
  for (std::size_t i = 0; i < 8; ++i) a[i] = i + 1;

  WordBuf copy = a;
  EXPECT_EQ(copy, a);
  copy[0] = 99;
  EXPECT_NE(copy, a) << "copies must not share storage";
  EXPECT_EQ(a[0], 1u);

  WordBuf moved = std::move(copy);
  EXPECT_EQ(moved.size(), 8u);
  EXPECT_EQ(moved[0], 99u);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT: moved-from is empty by contract

  WordBuf assigned;
  assigned = a;
  EXPECT_EQ(assigned, a);
  assigned = WordBuf(3);
  EXPECT_EQ(assigned.size(), 3u);
  EXPECT_EQ(assigned[0], 0u);
}

TEST(WordBuf, ZeroFilledOnConstruction) {
  // Dirty the thread-local arena's free list first so a recycled block is
  // exercised, not just a fresh one.
  {
    WordBuf dirty(16);
    for (std::size_t i = 0; i < 16; ++i) dirty[i] = ~0ULL;
  }
  WordBuf b(16);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(b[i], 0u);
}

TEST(WordBuf, InlineAndLeasedCrossAssignment) {
  // Buffers of up to kInlineWords limbs live in the object; assignments
  // in both directions across that boundary keep values and lease balance.
  const WordArena::Stats before = WordArena::local().stats();
  {
    WordBuf small(WordBuf::kInlineWords);
    small[0] = 7;
    WordBuf big(WordBuf::kInlineWords + 3);
    big[4] = 9;
    EXPECT_TRUE(small.is_inline());
    EXPECT_FALSE(big.is_inline());

    WordBuf a = small;  // inline copy
    a = big;            // inline -> leased
    EXPECT_EQ(a, big);
    a = small;          // leased -> inline
    EXPECT_EQ(a, small);
    WordBuf b = std::move(big);  // leased move
    EXPECT_EQ(b[4], 9u);
    EXPECT_EQ(big.size(), 0u);  // NOLINT: moved-from is empty by contract
    b = std::move(a);           // leased <- inline move
    EXPECT_EQ(b[0], 7u);
    EXPECT_TRUE(b.is_inline());
    const WordBuf& self = b;
    b = self;
    EXPECT_EQ(b[0], 7u);
  }
  const WordArena::Stats after = WordArena::local().stats();
  EXPECT_EQ(after.leases - before.leases, after.releases - before.releases);
  EXPECT_EQ(after.live_words, before.live_words);
}

}  // namespace
}  // namespace ltnc
