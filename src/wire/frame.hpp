// Frame — an arena-leased byte buffer holding one wire-format datagram.
//
// Serialization writes frames, transports move them, deserialization reads
// them. Storage is a WordBuf leased from the thread-local WordArena, so a
// reused Frame (or one recycled through a transport ring) never touches the
// global heap at steady state — the same discipline BitVector and Payload
// follow. Capacity is rounded up to whole 64-bit limbs; `size()` tracks the
// logical byte length of the frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/arena.hpp"
#include "common/check.hpp"

namespace ltnc::wire {

class Frame {
 public:
  Frame() = default;
  explicit Frame(std::size_t bytes)
      : words_((bytes + 7) / 8), size_(static_cast<std::uint32_t>(bytes)) {}

  Frame(const Frame&) = default;
  Frame& operator=(const Frame&) = default;

  // The implicit move would null the WordBuf but leave size_ stale,
  // breaking the size_ ≤ capacity() invariant on the moved-from frame —
  // a later reserve() would then copy size_ bytes out of a null buffer
  // (the transport rings recycle moved-from slots, so this is a real
  // path, not a theoretical one).
  Frame(Frame&& other) noexcept
      : words_(std::move(other.words_)), size_(other.size_) {
    other.size_ = 0;
  }
  Frame& operator=(Frame&& other) noexcept {
    if (this == &other) return *this;
    words_ = std::move(other.words_);
    size_ = other.size_;
    other.size_ = 0;
    return *this;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return words_.size() * 8; }
  bool empty() const { return size_ == 0; }

  std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(words_.data()); }
  const std::uint8_t* data() const {
    return reinterpret_cast<const std::uint8_t*>(words_.data());
  }

  std::span<const std::uint8_t> bytes() const { return {data(), size_}; }
  std::span<std::uint8_t> mutable_bytes() { return {data(), size_}; }

  void clear() { size_ = 0; }

  /// Sets the logical size, growing capacity if needed. Newly exposed
  /// bytes are unspecified (callers overwrite them); bytes up to the old
  /// size are preserved across growth.
  void resize(std::size_t bytes) {
    reserve(bytes);
    size_ = static_cast<std::uint32_t>(bytes);
  }

  /// Ensures capacity for `bytes` without changing size. Growth re-leases
  /// from the arena (power-of-two classes recycle instantly at steady
  /// state) and preserves the current contents.
  void reserve(std::size_t bytes) {
    if (bytes <= capacity()) return;
    LTNC_DCHECK(size_ <= capacity());
    WordBuf bigger((bytes + 7) / 8);
    if (size_ != 0) std::memcpy(bigger.data(), words_.data(), size_);
    words_ = std::move(bigger);
  }

  /// Appends raw bytes (grows as needed).
  void append(const std::uint8_t* src, std::size_t n) {
    reserve(size_ + n);
    if (n != 0) std::memcpy(data() + size_, src, n);
    size_ += static_cast<std::uint32_t>(n);
  }

  /// Copies the contents of `other` into this frame, reusing capacity.
  void assign(std::span<const std::uint8_t> other) {
    resize(other.size());
    if (!other.empty()) std::memcpy(data(), other.data(), other.size());
  }

 private:
  [[no_unique_address]] WordBuf words_;  // size_ sits in its tail padding
  std::uint32_t size_ = 0;
};

}  // namespace ltnc::wire
