// Dense bit vector over GF(2).
//
// BitVector is the code-vector representation used throughout the library:
// an encoded packet's coefficients over the k native packets. The hot
// operations — XOR, popcount, popcount-of-XOR — route through the
// runtime-dispatched SIMD kernels in common/kernels.hpp, matching the
// paper's observation that linear coding over GF(2) "consists only in xor
// operations". Limb storage is leased from the thread-local WordArena so
// packet churn does not hit the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/kernels.hpp"

namespace ltnc {

class BitVector {
 public:
  /// Creates an all-zero vector of `bits` bits.
  explicit BitVector(std::size_t bits = 0)
      : words_((bits + 63) / 64), bits_(static_cast<std::uint32_t>(bits)) {}

  /// Creates a vector of `bits` bits with exactly one bit set.
  static BitVector unit(std::size_t bits, std::size_t index) {
    BitVector v(bits);
    v.set(index);
    return v;
  }

  /// Creates a vector from a list of set-bit indices.
  static BitVector from_indices(std::size_t bits,
                                const std::vector<std::size_t>& indices) {
    BitVector v(bits);
    for (std::size_t i : indices) v.set(i);
    return v;
  }

  std::size_t size() const { return bits_; }
  std::size_t word_count() const { return words_.size(); }

  bool test(std::size_t i) const {
    LTNC_DCHECK(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool value = true) {
    LTNC_DCHECK(i < bits_);
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void flip(std::size_t i) {
    LTNC_DCHECK(i < bits_);
    words_[i >> 6] ^= 1ULL << (i & 63);
  }

  void clear() { words_.fill_zero(); }

  /// Copies the contents of `other` (same size) without reallocating —
  /// scratch-row reuse in the solvers.
  void copy_from(const BitVector& other) {
    LTNC_DCHECK(bits_ == other.bits_);
    words_ = other.words_;
  }

  /// In-place GF(2) addition. Both operands must have the same size.
  /// Returns the number of 64-bit word operations performed (for cost
  /// accounting in the control-plane benchmarks).
  std::size_t xor_with(const BitVector& other);

  /// In-place GF(2) addition of every vector in `sources` (all the same
  /// size) in one pass over this vector's words. Returns word ops charged
  /// as if each source had been XORed individually.
  std::size_t xor_accumulate(const BitVector* const* sources,
                             std::size_t count);

  BitVector operator^(const BitVector& other) const {
    BitVector r = *this;
    r.xor_with(other);
    return r;
  }

  /// Number of set bits — the packet's degree.
  std::size_t popcount() const;

  /// popcount(*this ^ other) without materialising the XOR. This is the
  /// degree a packet would have after combining — used by Algorithm 1 to
  /// test candidate combinations without allocation.
  std::size_t popcount_xor(const BitVector& other) const;

  /// In-place set difference: clears every bit that is set in `other`
  /// (this &= ~other). Used to strip decoded natives from an incoming code
  /// vector. Returns word operations performed.
  std::size_t subtract(const BitVector& other);

  /// popcount(*this & ~other): the degree an incoming vector would have
  /// after the decoded natives in `other` are stripped (feedback-channel
  /// evaluation without materialising a copy).
  std::size_t popcount_and_not(const BitVector& other) const;

  bool any() const;
  bool none() const { return !any(); }

  /// Index of the lowest set bit, or npos if none.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t first_set() const;

  /// Index of the lowest set bit at position >= from, or npos.
  std::size_t next_set(std::size_t from) const;

  /// Invokes fn(index) for every set bit, in increasing index order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Returns the indices of all set bits.
  std::vector<std::size_t> indices() const;

  bool operator==(const BitVector& other) const {
    return bits_ == other.bits_ && words_ == other.words_;
  }
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  /// 64-bit mixing hash over the words (for hash-set membership of
  /// low-degree packets in the redundancy detector).
  std::uint64_t hash() const;

  /// "{0,3,7}" style debug representation.
  std::string to_string() const;

  const std::uint64_t* words() const { return words_.data(); }

  /// Read-only view of the limb words — the zero-copy source for wire
  /// serialization. Bits past size() in the last word are always zero
  /// (class invariant).
  std::span<const std::uint64_t> word_span() const {
    return {words_.data(), words_.size()};
  }

  /// Mutable limb access for deserialization fast paths. Callers must
  /// preserve the zero-tail invariant: bits past size() stay clear
  /// (popcount and the XOR kernels rely on it).
  std::uint64_t* mutable_words() { return words_.data(); }

 private:
  [[no_unique_address]] WordBuf words_;  // bits_ sits in its tail padding
  std::uint32_t bits_;
};

struct BitVectorHash {
  std::size_t operator()(const BitVector& v) const {
    return static_cast<std::size_t>(v.hash());
  }
};

}  // namespace ltnc
