// PooledLists — a fixed number of growable lists sharing one array.
//
// The coding state keeps one small list per native or per degree: the
// Tanner graph's native → packet adjacency, the degree index's buckets,
// the per-component occurrence heaps. As a vector of vectors each
// non-empty list is its own heap block, so a k = 16 node pays dozens of
// allocator headers and rounding for a few hundred bytes of ids. Here
// every list is a segment [offset, offset + capacity) of one pooled
// array: a full list grows by half by moving its segment to the pool's
// tail (or in place when it already sits there), and the holes that
// moves and clear() leave behind are squeezed out once they reach a
// quarter of the pool. Items never change order within their list, so iteration,
// index access and the heap algorithms see exactly what the nested
// vectors held.
//
// items(list) spans the pool: any push_back into *any* list may move the
// pool and invalidates every span taken before it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace ltnc {

template <typename T>
class PooledLists {
 public:
  explicit PooledLists(std::size_t lists = 0) : heads_(lists) {}

  std::size_t lists() const { return heads_.size(); }
  std::size_t size(std::size_t list) const { return heads_[list].size; }
  bool empty(std::size_t list) const { return heads_[list].size == 0; }

  std::span<T> items(std::size_t list) {
    const Head& h = heads_[list];
    return {pool_.data() + h.offset, h.size};
  }
  std::span<const T> items(std::size_t list) const {
    const Head& h = heads_[list];
    return {pool_.data() + h.offset, h.size};
  }

  void push_back(std::size_t list, const T& value) {
    if (heads_[list].size == heads_[list].capacity) grow(list);
    Head& h = heads_[list];
    pool_[h.offset + h.size] = value;
    ++h.size;
  }

  void pop_back(std::size_t list) {
    LTNC_DCHECK(heads_[list].size != 0);
    --heads_[list].size;
  }

  /// Empties `list` and hands its segment back to the pool.
  void clear(std::size_t list) {
    Head& h = heads_[list];
    if (h.offset + h.capacity == pool_.size()) {
      pool_.resize(h.offset);  // tail segment: shrink instead of a hole
    } else {
      holes_ += h.capacity;
    }
    h = Head{};
  }

  /// Pre-sizes the pool for `items` items in total.
  void reserve(std::size_t items) { pool_.reserve(items); }

  /// Empties every list and frees the pool's storage.
  void release() {
    std::fill(heads_.begin(), heads_.end(), Head{});
    std::vector<T>().swap(pool_);
    holes_ = 0;
  }

  /// Heap bytes of the pooled items (the fixed list heads excluded).
  std::size_t capacity_bytes() const { return pool_.capacity() * sizeof(T); }

 private:
  struct Head {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  void grow(std::size_t list) {
    // Lists grow by half (at least two items) and holes are squeezed out
    // at a quarter of the pool: the pool is per node, so slack is memory
    // multiplied by the fleet size.
    const std::size_t cap = heads_[list].capacity;
    const std::size_t want = cap + std::max<std::size_t>(2, cap / 2);
    if (4 * holes_ > pool_.size()) compact(want);
    Head& h = heads_[list];
    const std::size_t end = std::size_t{h.offset} + h.capacity;
    if (h.capacity != 0 && end == pool_.size()) {
      extend(std::size_t{h.offset} + want);  // already the tail
    } else {
      const std::size_t offset = pool_.size();
      LTNC_CHECK_MSG(offset + want <= UINT32_MAX, "pooled lists overflow");
      extend(offset + want);
      std::copy_n(pool_.begin() + h.offset, h.size, pool_.begin() + offset);
      holes_ += h.capacity;
      h.offset = static_cast<std::uint32_t>(offset);
    }
    h.capacity = static_cast<std::uint32_t>(want);
  }

  /// Resizes the pool to `items`, growing its storage by half rather
  /// than doubling it: the pool is per node and mostly small.
  void extend(std::size_t items) {
    if (items > pool_.capacity()) {
      pool_.reserve(std::max(items, pool_.capacity() + pool_.capacity() / 2));
    }
    pool_.resize(items);
  }

  /// Rewrites every list contiguously, in list order, each segment
  /// trimmed to its size, leaving room for `extra` more items.
  void compact(std::size_t extra) {
    std::vector<T> packed;
    packed.reserve(pool_.size() - holes_ + extra);
    for (Head& h : heads_) {
      const auto offset = static_cast<std::uint32_t>(packed.size());
      packed.insert(packed.end(), pool_.begin() + h.offset,
                    pool_.begin() + h.offset + h.size);
      h.offset = h.size == 0 ? 0 : offset;
      h.capacity = h.size;
    }
    pool_.swap(packed);
    holes_ = 0;
  }

  std::vector<Head> heads_;
  std::vector<T> pool_;
  std::size_t holes_ = 0;  ///< pool slots no list owns
};

}  // namespace ltnc
