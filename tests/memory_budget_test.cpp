// Per-node memory guard: a 2,000-node kScale LTNC gossip run (k = 16,
// 16 B blocks) must keep its heap per materialized node under a fixed
// budget, so a change that bloats per-node coding state fails here
// rather than only in the benchmark's peak RSS.
//
// The figure is glibc's mallinfo2() in-use bytes (uordblks), sampled
// after every simulation step, peak minus the pre-run baseline. The test
// skips off glibc (no mallinfo2) and under AddressSanitizer or
// ThreadSanitizer, whose allocators replace malloc and pad every block.
#include <gtest/gtest.h>

#include <cstddef>

#include "dissemination/event_engine.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LTNC_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LTNC_SANITIZED_HEAP 1
#endif
#endif

namespace ltnc {
namespace {

// Measured 9,200 B/node at the peak (2,000 nodes, seed 7, gcc 12.2
// Release, x86-64); the budget allows 25 % on top of that.
constexpr double kBudgetBytesPerNode = 1.25 * 9200.0;

TEST(MemoryBudget, LtncHeapPerNodeStaysUnderBudget) {
#if defined(LTNC_SANITIZED_HEAP)
  GTEST_SKIP() << "sanitizer allocators pad every block";
#elif !defined(__GLIBC__)
  GTEST_SKIP() << "mallinfo2 needs glibc";
#else
  dissem::SimConfig cfg;
  cfg.num_nodes = 2000;
  cfg.k = 16;
  cfg.payload_bytes = 16;
  cfg.seed = 7;
  cfg.content_seed = 7 * 31 + 42;
  cfg.source_pushes_per_round = 4;
  cfg.max_rounds = 5000;
  cfg.feedback = session::FeedbackMode::kBinary;

  const std::size_t before = mallinfo2().uordblks;
  std::size_t peak = before;
  dissem::EventSimulation sim(session::Scheme::kLtnc, cfg,
                              dissem::EngineMode::kScale);
  while (!sim.finished()) {
    sim.step();
    const std::size_t now = mallinfo2().uordblks;
    if (now > peak) peak = now;
  }
  ASSERT_TRUE(sim.core().finalise().all_complete);
  const std::size_t nodes = sim.core().materialized_count();
  ASSERT_GT(nodes, 0u);
  const double per_node =
      static_cast<double>(peak - before) / static_cast<double>(nodes);
  RecordProperty("peak_heap_bytes_per_node", static_cast<int>(per_node));
  EXPECT_LT(per_node, kBudgetBytesPerNode)
      << "peak heap per materialized node grew past the budget";
#endif
}

}  // namespace
}  // namespace ltnc
