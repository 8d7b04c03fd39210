// Soliton degree distributions for LT codes (Luby, FOCS 2002).
//
// The Robust Soliton distribution is the statistical backbone of LT codes
// and therefore of LTNC: every encoded packet the source emits — and every
// packet an LTNC node recodes — draws its degree from it (paper Fig. 2).
// It is the Ideal Soliton ρ(·) plus a correction τ(·) that (a) boosts
// degree-1/2 mass so belief propagation keeps a non-empty ripple and
// (b) adds a spike at k/R ensuring every native packet is eventually
// covered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/discrete_distribution.hpp"
#include "common/rng.hpp"

namespace ltnc::lt {

/// Ideal Soliton: ρ(1) = 1/k, ρ(d) = 1/(d(d−1)) for 2 ≤ d ≤ k.
/// Returned vector is indexed by degree−1 and sums to 1.
std::vector<double> ideal_soliton_weights(std::size_t k);

struct RobustSolitonParams {
  /// Luby's c constant: scales the spike position R = c·ln(k/δ)·√k.
  double c = 0.1;
  /// Decoder failure probability bound δ.
  double delta = 0.05;

  bool operator==(const RobustSolitonParams&) const = default;
};

/// Robust Soliton: μ(d) = (ρ(d) + τ(d)) / β, normalised. Indexed by
/// degree−1.
std::vector<double> robust_soliton_weights(std::size_t k,
                                           const RobustSolitonParams& params);

/// Fixed-point inverse-CDF degree sampler (the pyrofling lt_lut shape):
/// one 64-bit draw, integer compares only, no floating point at sample
/// time. The top kTableBits of the draw index a table holding the first
/// candidate degree for that CDF bucket; a short forward walk over the
/// fixed-point CDF finishes the inversion (expected O(1): buckets are
/// finer than the distribution's mass almost everywhere).
///
/// The sampler is *distribution*-equivalent to DiscreteDistribution over
/// the same weights (each degree's probability matches to within 2⁻⁶⁴
/// rounding) but draw-sequence different — one next() per sample instead
/// of the alias method's draws — so it is an explicit opt-in: golden
/// seeded runs keep the alias path.
class DegreeLut {
 public:
  static constexpr std::size_t kTableBits = 12;
  static constexpr std::size_t kEntries = std::size_t{1} << kTableBits;

  DegreeLut() = default;
  /// Builds from unnormalised non-negative weights, indexed by degree−1.
  explicit DegreeLut(const std::vector<double>& weights);

  bool empty() const { return cdf_.empty(); }
  std::size_t k() const { return cdf_.size(); }

  /// Draws a degree in [1, k] — exactly one rng.next().
  std::size_t sample(Rng& rng) const {
    const std::uint64_t u = rng.next();
    std::size_t d = start_[u >> (64 - kTableBits)];
    while (d + 1 < cdf_.size() && u >= cdf_[d]) ++d;
    return d + 1;
  }

  /// Fixed-point probability mass of degree d ∈ [1, k] (numerator of
  /// x/2⁶⁴) — the equivalence test compares this against the weights
  /// exactly. The top degree's mass is one ulp short: the CDF saturates
  /// at 2⁶⁴−1.
  std::uint64_t mass(std::size_t d) const {
    const std::uint64_t hi = cdf_[d - 1];
    const std::uint64_t lo = d >= 2 ? cdf_[d - 2] : 0;
    return hi - lo;
  }

 private:
  std::vector<std::uint64_t> cdf_;    ///< cdf_[i] ≈ P(deg ≤ i+1)·2⁶⁴
  std::vector<std::uint32_t> start_;  ///< bucket → first candidate index
};

/// Sampler for packet degrees following the Robust Soliton distribution.
class RobustSoliton {
 public:
  /// `use_lut` switches sample() to the fixed-point DegreeLut — same
  /// distribution, different (and cheaper) draw sequence. Keep it off
  /// wherever a seed pins an exact trajectory.
  explicit RobustSoliton(std::size_t k, RobustSolitonParams params = {},
                         bool use_lut = false);

  /// The process-wide alias-path table of (k, params). The table is
  /// immutable, so every holder shares one instance: at k = 16 a private
  /// copy's alias tables would cost a gossip node more heap than its
  /// coding state. It lives while someone holds it; thread-safe.
  static std::shared_ptr<const RobustSoliton> shared(
      std::size_t k, const RobustSolitonParams& params = {});

  std::size_t k() const { return k_; }
  const RobustSolitonParams& params() const { return params_; }
  bool uses_lut() const { return !lut_.empty(); }

  /// Draws a degree in [1, k].
  std::size_t sample(Rng& rng) const {
    return lut_.empty() ? dist_.sample(rng) + 1 : lut_.sample(rng);
  }

  /// P(degree = d).
  double probability(std::size_t d) const {
    return (d >= 1 && d <= k_) ? dist_.probability_of(d - 1) : 0.0;
  }

  /// Expected degree — Θ(log k); drives the paper's O(m·k·log k) decoding
  /// bound.
  double mean_degree() const;

  /// R = c·ln(k/δ)·√k, the expected ripple size.
  double ripple() const { return ripple_; }

 private:
  std::size_t k_;
  RobustSolitonParams params_;
  double ripple_;
  DiscreteDistribution dist_;
  DegreeLut lut_;  ///< empty unless use_lut was requested
};

}  // namespace ltnc::lt
