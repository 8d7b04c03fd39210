// WordArena — recycling limb-storage pool for the packet data plane.
//
// Every BitVector and Payload leases its 64-bit limb array from an arena
// instead of owning a heap allocation. Freed arrays go onto per-size-class
// free lists and are handed back on the next lease, so the encode / recode
// / decode loops — which create and destroy packets at a furious rate but
// over a tiny set of distinct sizes (k-bit code vectors, m-byte payloads)
// — run allocation-free at steady state. Blocks are 64-byte aligned for
// the SIMD kernels and zero-filled on lease.
//
// The default arena is thread-local; the main thread's instance is
// intentionally leaked at process exit (static-destruction-order safety:
// a static-duration BitVector may release after the arena's natural
// destruction point). The library is single-threaded per *node*: one
// endpoint's coding state always lives on one thread. Buffers may still
// cross threads by ownership transfer (the SPSC frame rings swap whole
// WordBuf leases between an I/O thread and a shard worker); a buffer
// released on a thread other than the one that leased it simply lands in
// that thread's free lists — the block memory is plain aligned operator
// new, so recycling and freeing it anywhere is safe. Only the per-arena
// Stats become a *local* view then: lease/release balance holds summed
// across the participating threads, not per thread (the threaded tests
// assert exactly that). Worker threads that touched the arena should call
// WordArena::reclaim_local() before exiting so their cached blocks (and
// the arena object itself) are freed rather than leaked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.hpp"

namespace ltnc {

class WordArena {
 public:
  struct Stats {
    std::uint64_t leases = 0;        ///< total lease calls
    std::uint64_t releases = 0;      ///< total release calls
    std::uint64_t fresh_blocks = 0;  ///< leases served by a new heap block
    std::uint64_t recycled_blocks = 0;  ///< leases served from a free list
    std::uint64_t live_words = 0;    ///< words currently leased out
  };

  WordArena() = default;
  ~WordArena();

  WordArena(const WordArena&) = delete;
  WordArena& operator=(const WordArena&) = delete;

  /// Leases a zero-filled array of at least `words` limbs (64-byte
  /// aligned). Returns nullptr for words == 0.
  std::uint64_t* lease(std::size_t words);

  /// Leases without the zero-fill — for callers that overwrite the whole
  /// array immediately (copies). Same recycling behaviour as lease().
  std::uint64_t* lease_uninitialized(std::size_t words);

  /// Returns an array obtained from lease()/lease_uninitialized() with the
  /// same `words` it was leased with.
  void release(std::uint64_t* ptr, std::size_t words);

  /// Frees every cached block. Outstanding leases stay valid.
  void trim();

  const Stats& stats() const { return stats_; }

  /// The calling thread's default arena (the main thread's is never
  /// destroyed — see header comment). All BitVector/Payload storage flows
  /// through this.
  static WordArena& local();

  /// Destroys the calling thread's default arena, freeing every cached
  /// block — worker-thread exit hygiene, so short-lived shard threads do
  /// not leak their recycling caches (the leak checker would flag them
  /// once the thread's TLS is gone). Every object holding a lease from
  /// this thread must be gone or already transferred to another thread;
  /// a later local() call on this thread starts a fresh arena. The main
  /// thread must not call this (its arena outlives static destructors on
  /// purpose).
  static void reclaim_local();

 private:
  /// Free-list index: words are rounded up to the next power of two so a
  /// released block can serve any lease of the same class.
  static std::size_t class_index(std::size_t words);
  static std::size_t class_words(std::size_t cls) {
    return std::size_t{1} << cls;
  }

  std::vector<std::vector<std::uint64_t*>> free_lists_;
  Stats stats_;
};

/// A limb array: the storage type under BitVector, Payload and
/// wire::Frame. Arrays of at most kInlineWords limbs live inside the
/// object itself; longer ones lease a block from the thread-local arena.
/// At k ≤ 128 a code vector, a ≤ 16 B payload and a small feedback frame
/// therefore cost no heap block at all — the per-node footprint of a
/// large simulated fleet is mostly such vectors. Move transfers a lease
/// (or copies the inline limbs); copy takes a fresh lease and memcpys.
/// The logical word count is fixed at construction.
///
/// Pointer stability: data() of an inline buffer points into the object,
/// so it moves with the object (a move, a swap, a vector reallocation).
/// Only a leased buffer's data() survives a move of its owner. The SIMD
/// kernels use unaligned loads, so inline limbs (8-byte aligned) and
/// 64-byte-aligned leased blocks are interchangeable to them.
class WordBuf {
 public:
  static constexpr std::size_t kInlineWords = 2;

  WordBuf() = default;

  /// `words` zero-filled limbs: inline, or leased from the thread-local
  /// arena past kInlineWords.
  explicit WordBuf(std::size_t words)
      : words_(static_cast<std::uint32_t>(words)) {
    LTNC_DCHECK(words <= UINT32_MAX);
    if (!is_inline()) ptr_ = WordArena::local().lease(words);
  }

  WordBuf(const WordBuf& other) : words_(other.words_) {
    if (is_inline()) {
      copy_inline(other);
    } else {
      ptr_ = WordArena::local().lease_uninitialized(words_);
      std::memcpy(ptr_, other.ptr_, words_ * 8);
    }
  }

  WordBuf(WordBuf&& other) noexcept : words_(other.words_) {
    if (is_inline()) {
      copy_inline(other);
    } else {
      ptr_ = other.ptr_;
    }
    other.words_ = 0;
  }

  WordBuf& operator=(const WordBuf& other) {
    if (this == &other) return *this;
    if (words_ != other.words_) {
      // Lease before release: if the lease throws, this buffer is
      // untouched and the old block is not double-listed.
      WordArena& arena = WordArena::local();
      std::uint64_t* fresh =
          other.is_inline() ? nullptr : arena.lease_uninitialized(other.words_);
      if (!is_inline()) arena.release(ptr_, words_);
      words_ = other.words_;
      if (fresh != nullptr) ptr_ = fresh;
    }
    if (is_inline()) {
      copy_inline(other);
    } else {
      std::memcpy(ptr_, other.ptr_, words_ * 8);
    }
    return *this;
  }

  WordBuf& operator=(WordBuf&& other) noexcept {
    if (this == &other) return *this;
    if (!is_inline()) WordArena::local().release(ptr_, words_);
    words_ = other.words_;
    if (is_inline()) {
      copy_inline(other);
    } else {
      ptr_ = other.ptr_;
    }
    other.words_ = 0;
    return *this;
  }

  ~WordBuf() {
    if (!is_inline()) WordArena::local().release(ptr_, words_);
  }

  std::size_t size() const { return words_; }
  /// True when the limbs live inside this object (no arena lease).
  bool is_inline() const { return words_ <= kInlineWords; }
  std::uint64_t* data() { return is_inline() ? inline_ : ptr_; }
  const std::uint64_t* data() const { return is_inline() ? inline_ : ptr_; }

  std::uint64_t& operator[](std::size_t i) { return data()[i]; }
  const std::uint64_t& operator[](std::size_t i) const { return data()[i]; }

  void fill_zero() {
    if (words_ != 0) std::memset(data(), 0, words_ * 8);
  }

  bool operator==(const WordBuf& other) const {
    return words_ == other.words_ &&
           (words_ == 0 ||
            std::memcmp(data(), other.data(), words_ * 8) == 0);
  }
  bool operator!=(const WordBuf& other) const { return !(*this == other); }

 private:
  void copy_inline(const WordBuf& other) {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }

  union {
    std::uint64_t* ptr_;                           ///< leased block
    std::uint64_t inline_[kInlineWords] = {0, 0};  ///< small arrays
  };
  // 32 bits leave 4 bytes of tail padding, which BitVector, Payload and
  // wire::Frame fill with their own length ([[no_unique_address]]): each
  // is 24 bytes.
  std::uint32_t words_ = 0;
};

}  // namespace ltnc
