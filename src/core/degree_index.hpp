// Degree index: "encoded packets by degrees" (paper Table I).
//
// Maps each degree to the set of stored packets currently at that degree,
// with O(1) insert/remove/random-access. A Fenwick tree over i·n(i) answers
// the first reachability bound of §III-B.1 — "a degree d is unreachable if
// Σ_{i=1..d} i·n(i) < d" — in O(log k), staying exact while belief
// propagation keeps reducing packet degrees underneath us.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/fenwick.hpp"
#include "common/pooled_lists.hpp"
#include "common/types.hpp"

namespace ltnc::core {

class DegreeIndex {
 public:
  explicit DegreeIndex(std::size_t k);

  void insert(PacketId id, std::size_t degree);
  void change(PacketId id, std::size_t old_degree, std::size_t new_degree);
  void remove(PacketId id, std::size_t degree);

  std::size_t count(std::size_t degree) const {
    return degree < buckets_.lists() ? buckets_.size(degree) : 0;
  }
  /// The packets at `degree`, in bucket order. Invalidated by the next
  /// insert or change.
  std::span<const PacketId> bucket(std::size_t degree) const;

  std::size_t total_packets() const { return total_; }

  /// Σ_{i=1..d} i·n(i) over stored packets (decoded natives are added by
  /// the caller, which treats them as degree-1 resources).
  std::uint64_t weighted_sum_up_to(std::size_t d) const;

  /// Highest degree with a non-empty bucket (0 if the index is empty).
  std::size_t max_degree() const;

 private:
  std::size_t slot_of(PacketId id) const;

  PooledLists<PacketId> buckets_;  ///< [1..k]; [0] unused
  std::vector<std::uint32_t> pos_;              ///< PacketId -> bucket slot
  Fenwick<std::int64_t> weighted_;              ///< position d-1 carries d·n(d)
  std::size_t total_ = 0;
};

}  // namespace ltnc::core
