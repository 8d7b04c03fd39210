#include "lt/soliton.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.hpp"

namespace ltnc::lt {
namespace {

TEST(IdealSoliton, SumsToOne) {
  for (std::size_t k : {1u, 2u, 10u, 1000u}) {
    const auto w = ideal_soliton_weights(k);
    ASSERT_EQ(w.size(), k);
    const double sum = std::accumulate(w.begin(), w.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "k=" << k;
  }
}

TEST(IdealSoliton, KnownValues) {
  const auto w = ideal_soliton_weights(4);
  EXPECT_NEAR(w[0], 0.25, 1e-12);        // ρ(1) = 1/k
  EXPECT_NEAR(w[1], 0.5, 1e-12);         // ρ(2) = 1/2
  EXPECT_NEAR(w[2], 1.0 / 6.0, 1e-12);   // ρ(3) = 1/6
  EXPECT_NEAR(w[3], 1.0 / 12.0, 1e-12);  // ρ(4) = 1/12
}

TEST(RobustSoliton, NormalisedAndSpiked) {
  const std::size_t k = 2048;
  const RobustSolitonParams params{};
  const auto w = robust_soliton_weights(k, params);
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);

  // Spike at k/R: strictly more mass than its ideal-soliton neighbourhood.
  const double R = params.c * std::log(static_cast<double>(k) / params.delta) *
                   std::sqrt(static_cast<double>(k));
  const auto spike = static_cast<std::size_t>(static_cast<double>(k) / R);
  EXPECT_GT(w[spike - 1], w[spike]);
  EXPECT_GT(w[spike - 1], w[spike - 2]);
}

TEST(RobustSoliton, LowDegreesDominate) {
  // The paper: "more than 50% of encoded packets of degree 1 or 2" — our
  // default parameters give ≈ 45–55 %; assert the qualitative property
  // that degrees 1–3 carry the majority of the mass.
  const RobustSoliton rs(2048);
  double low = rs.probability(1) + rs.probability(2) + rs.probability(3);
  EXPECT_GT(low, 0.5);
  EXPECT_GT(rs.probability(2), rs.probability(5));
}

TEST(RobustSoliton, MeanDegreeIsLogarithmic) {
  // Average degree should grow like log k (paper §II).
  const RobustSoliton small(256);
  const RobustSoliton large(4096);
  EXPECT_GT(large.mean_degree(), small.mean_degree());
  EXPECT_LT(large.mean_degree(), 4.0 * std::log(4096.0));
  EXPECT_GT(large.mean_degree(), 0.5 * std::log(4096.0));
}

TEST(RobustSoliton, SamplesWithinRangeAndMatchDistribution) {
  const std::size_t k = 64;
  const RobustSoliton rs(k);
  Rng rng(9);
  constexpr int kSamples = 200000;
  std::vector<int> counts(k + 1, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::size_t d = rs.sample(rng);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, k);
    ++counts[d];
  }
  for (std::size_t d = 1; d <= k; ++d) {
    const double expected = rs.probability(d);
    const double observed =
        static_cast<double>(counts[d]) / static_cast<double>(kSamples);
    const double sigma = std::sqrt(expected * (1 - expected) / kSamples);
    EXPECT_NEAR(observed, expected, 5 * sigma + 1e-4) << "degree " << d;
  }
}

TEST(RobustSoliton, InvalidParamsThrow) {
  EXPECT_THROW(robust_soliton_weights(16, {.c = 0.0, .delta = 0.5}),
               std::logic_error);
  EXPECT_THROW(robust_soliton_weights(16, {.c = 0.1, .delta = 0.0}),
               std::logic_error);
  EXPECT_THROW(robust_soliton_weights(16, {.c = 0.1, .delta = 1.5}),
               std::logic_error);
}

TEST(RobustSoliton, TinyK) {
  // k = 1: the only possible degree is 1.
  const RobustSoliton rs(1);
  Rng rng(4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rs.sample(rng), 1u);
}

TEST(RobustSoliton, SharedTableIsOnePerKAndParams) {
  const auto a = RobustSoliton::shared(16);
  const auto b = RobustSoliton::shared(16, {});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), RobustSoliton::shared(32).get());
  EXPECT_NE(a.get(), RobustSoliton::shared(16, {.c = 0.2}).get());
  EXPECT_EQ(a->k(), 16u);
  // The shared table is the alias path: same draws as a private table.
  EXPECT_FALSE(a->uses_lut());
  const RobustSoliton own(16);
  Rng r1(9), r2(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a->sample(r1), own.sample(r2));
}

class RobustSolitonSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RobustSolitonSweep, ProbabilitiesFormDistribution) {
  const std::size_t k = GetParam();
  const RobustSoliton rs(k);
  double sum = 0.0;
  for (std::size_t d = 1; d <= k; ++d) {
    const double p = rs.probability(d);
    ASSERT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(rs.probability(0), 0.0);
  EXPECT_EQ(rs.probability(k + 1), 0.0);
}

INSTANTIATE_TEST_SUITE_P(K, RobustSolitonSweep,
                         ::testing::Values(2, 16, 100, 512, 2048));

// --- fixed-point degree LUT -------------------------------------------------

TEST(DegreeLut, MassMatchesWeightsExactly) {
  // Not a statistical check: the LUT's fixed-point mass for every degree
  // must equal the real-valued weight to within CDF rounding (one ulp per
  // entry at 2⁻⁶⁴, plus double accumulation noise — far below 1e-12).
  for (const std::size_t k : {2u, 16u, 100u, 512u}) {
    const auto weights = robust_soliton_weights(k, {});
    const DegreeLut lut(weights);
    ASSERT_EQ(lut.k(), k);
    for (std::size_t d = 1; d <= k; ++d) {
      const double mass =
          std::ldexp(static_cast<double>(lut.mass(d)), -64);
      EXPECT_NEAR(mass, weights[d - 1], 1e-12) << "k=" << k << " d=" << d;
    }
  }
}

TEST(DegreeLut, SamplesAreAlwaysInRange) {
  const std::size_t k = 48;
  const DegreeLut lut(robust_soliton_weights(k, {}));
  Rng rng(11);
  for (int i = 0; i < 100000; ++i) {
    const std::size_t d = lut.sample(rng);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, k);
  }
}

TEST(DegreeLut, EmpiricalDistributionMatchesAliasSampler) {
  // The satellite's contract: LUT and alias sampler draw from the same
  // distribution (different draw sequences). Compare both empirical
  // histograms against the analytic weights.
  const std::size_t k = 64;
  const std::size_t n = 400000;
  const auto weights = robust_soliton_weights(k, {});
  const DegreeLut lut(weights);
  const RobustSoliton alias(k);
  std::vector<double> lut_freq(k, 0.0);
  std::vector<double> alias_freq(k, 0.0);
  Rng lut_rng(21);
  Rng alias_rng(22);
  for (std::size_t i = 0; i < n; ++i) {
    lut_freq[lut.sample(lut_rng) - 1] += 1.0 / static_cast<double>(n);
    alias_freq[alias.sample(alias_rng) - 1] += 1.0 / static_cast<double>(n);
  }
  for (std::size_t d = 1; d <= k; ++d) {
    const double p = weights[d - 1];
    // ~5σ binomial tolerance at n = 4·10⁵.
    const double tol =
        5.0 * std::sqrt(p * (1.0 - p) / static_cast<double>(n)) + 1e-6;
    EXPECT_NEAR(lut_freq[d - 1], p, tol) << "lut d=" << d;
    EXPECT_NEAR(alias_freq[d - 1], p, tol) << "alias d=" << d;
  }
}

TEST(DegreeLut, OptInThroughRobustSoliton) {
  const RobustSoliton off(32);
  const RobustSoliton on(32, {}, /*use_lut=*/true);
  EXPECT_FALSE(off.uses_lut());
  EXPECT_TRUE(on.uses_lut());
  // The LUT path consumes exactly one 64-bit draw per sample.
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t d = on.sample(a);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, 32u);
    b.next();
    ASSERT_EQ(a.next(), b.next()) << "sample " << i
                                  << " consumed more than one draw";
  }
}

TEST(DegreeLut, RejectsDegenerateWeights) {
  EXPECT_THROW(DegreeLut(std::vector<double>{}), std::logic_error);
  EXPECT_THROW(DegreeLut(std::vector<double>{0.0, 0.0}), std::logic_error);
  EXPECT_THROW(DegreeLut(std::vector<double>{0.5, -0.1}), std::logic_error);
}

}  // namespace
}  // namespace ltnc::lt
