#include "lt/bp_decoder.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace ltnc::lt {

BpDecoder::BpDecoder(std::size_t k, std::size_t payload_bytes,
                     StoreObserver* observer)
    : k_(k),
      payload_bytes_(payload_bytes),
      observer_(observer),
      decoded_mask_(k),
      decoded_values_(k, Payload(0)),
      adjacency_(k) {
  LTNC_CHECK_MSG(k > 0, "code length must be positive");
}

const Payload& BpDecoder::native_payload(NativeIndex i) const {
  LTNC_CHECK_MSG(i < k_, "native index out of range");
  LTNC_CHECK_MSG(decoded_mask_.test(i), "native not decoded");
  return decoded_values_[i];
}

const BitVector& BpDecoder::packet_coeffs(PacketId id) const {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  return slots_[id].packet.coeffs;
}

const Payload& BpDecoder::packet_payload(PacketId id) const {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  return slots_[id].packet.payload;
}

std::size_t BpDecoder::packet_degree(PacketId id) const {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  return slots_[id].degree;
}

void BpDecoder::reduce_by_decoded(CodedPacket& pkt) {
  // XOR out every decoded native appearing in the vector. Equivalent to
  // the paper's rule that a decoded native is immediately propagated into
  // arriving packets. The payload contributions are folded in one batched
  // pass instead of one full XOR per decoded native.
  reduce_sources_.clear();
  pkt.coeffs.for_each_set([&](std::size_t i) {
    ops_.control_steps += 1;
    if (decoded_mask_.test(i)) {
      pkt.coeffs.flip(i);
      reduce_sources_.push_back(&decoded_values_[i]);
    }
  });
  if (!reduce_sources_.empty()) {
    ops_.data_word_ops += pkt.payload.xor_accumulate(reduce_sources_.data(),
                                                     reduce_sources_.size());
  }
}

ReceiveResult BpDecoder::receive(const CodedPacket& packet) {
  LTNC_CHECK_MSG(packet.coeffs.size() == k_, "code vector width mismatch");
  LTNC_CHECK_MSG(packet.payload.size_bytes() == payload_bytes_,
                 "payload size mismatch");
  ++ops_.invocations;

  CodedPacket pkt = packet;
  ops_.control_word_ops += pkt.coeffs.word_count();  // header copy/scan
  reduce_by_decoded(pkt);

  const std::size_t degree = pkt.coeffs.popcount();
  ops_.control_word_ops += pkt.coeffs.word_count();
  if (degree == 0) return ReceiveResult::kDuplicate;

  if (degree >= 2 && degree <= 3 && observer_ != nullptr &&
      observer_->should_drop(kInvalidPacket, pkt.coeffs, degree)) {
    return ReceiveResult::kRejectedRedundant;
  }

  if (degree == 1) {
    const std::size_t i = pkt.coeffs.first_set();
    decode_native(static_cast<NativeIndex>(i), std::move(pkt.payload));
    process_ripple();
    if (complete()) release_store();
    return ReceiveResult::kDecodedNative;
  }

  // Store the packet in the Tanner graph.
  PacketId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<PacketId>(slots_.size());
    // Grow by half rather than double: a node's store is most of its
    // memory while it decodes, and doubling would leave up to half of it
    // empty.
    if (slots_.size() == slots_.capacity()) {
      const std::size_t more = std::max<std::size_t>(8, slots_.size() / 2);
      slots_.reserve(slots_.size() + more);
    }
    slots_.emplace_back();
  }
  Slot& slot = slots_[id];
  slot.packet = std::move(pkt);
  slot.degree = static_cast<std::uint32_t>(degree);
  ++stored_count_;
  slot.packet.coeffs.for_each_set([&](std::size_t i) {
    adjacency_.push_back(i, id);
    ops_.control_steps += 1;
  });
  if (observer_ != nullptr) {
    observer_->on_stored(id, slot.packet.coeffs, degree, slot.packet.payload);
  }
  return ReceiveResult::kStored;
}

void BpDecoder::decode_native(NativeIndex i, Payload value) {
  LTNC_CHECK_MSG(!decoded_mask_.test(i), "native decoded twice");
  decoded_mask_.set(i);
  decoded_values_[i] = std::move(value);
  decoded_order_.push_back(i);
  if (observer_ != nullptr) {
    observer_->on_native_decoded(i, decoded_values_[i]);
  }

  // Propagate the decoded value along the native's edges. The snapshot
  // buffer is a reusable member (decode_native never re-enters itself —
  // ripples are deferred to process_ripple); the native's list is emptied
  // before the walk, so observer callbacks see it as it will end up.
  std::vector<PacketId>& edges = edges_scratch_;
  const auto listed = adjacency_.items(i);
  edges.assign(listed.begin(), listed.end());
  adjacency_.clear(i);
  for (PacketId id : edges) {
    ops_.control_steps += 1;
    if (!packet_alive(id)) continue;  // stale adjacency entry
    Slot& slot = slots_[id];
    if (!slot.packet.coeffs.test(i)) continue;

    const std::size_t old_degree = slot.degree;
    slot.packet.coeffs.flip(i);
    ops_.data_word_ops += slot.packet.payload.xor_with(decoded_values_[i]);
    slot.degree = static_cast<std::uint32_t>(old_degree - 1);

    if (slot.degree == 0) {
      // Fully absorbed: the packet was dependent on decoded natives.
      LTNC_DCHECK(slot.packet.payload.is_zero());
      retire_slot(id, old_degree);
      continue;
    }
    // §III-C.1: re-test redundancy when a packet's degree drops into the
    // detectable range — dropping it now avoids useless XORs later.
    if (slot.degree >= 2 && slot.degree <= 3 && observer_ != nullptr &&
        observer_->should_drop(id, slot.packet.coeffs, slot.degree)) {
      retire_slot(id, old_degree);
      continue;
    }
    if (observer_ != nullptr) {
      observer_->on_degree_changed(id, slot.packet.coeffs, old_degree,
                                   slot.degree, slot.packet.payload);
    }
    if (slot.degree == 1) ripple_.push_back(id);
  }
}

void BpDecoder::process_ripple() {
  while (!ripple_.empty()) {
    const PacketId id = ripple_.back();
    ripple_.pop_back();
    ops_.control_steps += 1;
    if (!packet_alive(id) || slots_[id].degree != 1) continue;
    Slot& slot = slots_[id];
    const std::size_t i = slot.packet.coeffs.first_set();
    LTNC_DCHECK(i != BitVector::npos);
    Payload value = std::move(slot.packet.payload);
    retire_slot(id, 1);
    if (!decoded_mask_.test(i)) {
      decode_native(static_cast<NativeIndex>(i), std::move(value));
    }
  }
}

void BpDecoder::release_store() {
  LTNC_DCHECK(stored_count_ == 0);
  std::vector<Slot>().swap(slots_);
  std::vector<PacketId>().swap(free_list_);
  adjacency_.release();
  std::vector<PacketId>().swap(ripple_);
  std::vector<PacketId>().swap(edges_scratch_);
}

std::size_t BpDecoder::store_capacity_bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         free_list_.capacity() * sizeof(PacketId) +
         adjacency_.capacity_bytes() +
         ripple_.capacity() * sizeof(PacketId);
}

void BpDecoder::remove_packet(PacketId id) {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  retire_slot(id, slots_[id].degree);
}

void BpDecoder::retire_slot(PacketId id, std::size_t registered_degree) {
  Slot& slot = slots_[id];
  slot.degree = 0;  // invisible to traversals from observer callbacks
  --stored_count_;
  if (observer_ != nullptr) {
    observer_->on_removed(id, slot.packet.coeffs, registered_degree);
  }
  slot.packet = CodedPacket();
  free_list_.push_back(id);
}

}  // namespace ltnc::lt
