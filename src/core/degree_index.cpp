#include "core/degree_index.hpp"

#include "common/check.hpp"

namespace ltnc::core {

DegreeIndex::DegreeIndex(std::size_t k)
    : buckets_(k + 1), weighted_(k) {
  LTNC_CHECK_MSG(k > 0, "code length must be positive");
}

void DegreeIndex::insert(PacketId id, std::size_t degree) {
  LTNC_CHECK_MSG(degree >= 1 && degree < buckets_.lists(),
                 "degree out of range");
  if (id >= pos_.size()) pos_.resize(id + 1, 0);
  pos_[id] = static_cast<std::uint32_t>(buckets_.size(degree));
  buckets_.push_back(degree, id);
  weighted_.add(degree - 1, static_cast<std::int64_t>(degree));
  ++total_;
}

void DegreeIndex::remove(PacketId id, std::size_t degree) {
  LTNC_CHECK_MSG(degree >= 1 && degree < buckets_.lists(),
                 "degree out of range");
  const std::span<PacketId> bucket = buckets_.items(degree);
  const std::uint32_t slot = pos_[id];
  LTNC_CHECK_MSG(slot < bucket.size() && bucket[slot] == id,
                 "packet not registered at this degree");
  const PacketId moved = bucket.back();
  bucket[slot] = moved;
  pos_[moved] = slot;
  buckets_.pop_back(degree);
  weighted_.add(degree - 1, -static_cast<std::int64_t>(degree));
  --total_;
}

void DegreeIndex::change(PacketId id, std::size_t old_degree,
                         std::size_t new_degree) {
  remove(id, old_degree);
  insert(id, new_degree);
}

std::span<const PacketId> DegreeIndex::bucket(std::size_t degree) const {
  LTNC_CHECK_MSG(degree >= 1 && degree < buckets_.lists(),
                 "degree out of range");
  return buckets_.items(degree);
}

std::uint64_t DegreeIndex::weighted_sum_up_to(std::size_t d) const {
  if (d == 0) return 0;
  if (d > weighted_.size()) d = weighted_.size();
  return static_cast<std::uint64_t>(weighted_.prefix_sum(d - 1));
}

std::size_t DegreeIndex::max_degree() const {
  for (std::size_t d = buckets_.lists(); d-- > 1;) {
    if (!buckets_.empty(d)) return d;
  }
  return 0;
}

}  // namespace ltnc::core
