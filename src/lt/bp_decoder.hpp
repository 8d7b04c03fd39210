// Belief-propagation decoder over a Tanner graph (paper §II, Fig. 1).
//
// Encoded packets are nodes on one side of a bipartite graph, natives on
// the other; an edge means the native participates in the packet's XOR.
// Whenever a packet's degree reaches 1 its single remaining native is
// decoded and its value propagated along the native's edges, which may
// ripple further. Decoding cost is O(m·k·log k) — the 99 % saving over
// RLNC's Gaussian reduction that motivates LTNC.
//
// The decoder exposes a StoreObserver so LTNC (src/core) can mirror the
// packet store into its recoding structures (degree index, connected
// components, coverage, redundancy sets) and veto storage of packets its
// redundancy detector recognises (§III-C.1).
//
// Once every native is decoded the Tanner graph is empty (each stored
// packet has been reduced to degree 0 and retired) and every later
// arrival reduces to a duplicate, so a complete decoder frees its packet
// store outright: slots, free list, adjacency pool and ripple queue. In a
// large swarm most nodes spend most of their life complete.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bitvector.hpp"
#include "common/coded_packet.hpp"
#include "common/op_counters.hpp"
#include "common/pooled_lists.hpp"
#include "common/types.hpp"

namespace ltnc::lt {

/// Callbacks fired by BpDecoder as its packet store evolves. All references
/// are valid only for the duration of the call. Default implementations do
/// nothing, so plain-LT users can ignore this entirely.
class StoreObserver {
 public:
  virtual ~StoreObserver() = default;

  /// Consulted (a) before storing a freshly received packet (id ==
  /// kInvalidPacket) and (b) when a stored packet's degree drops to
  /// `degree` ∈ [2,3] during decoding. Return true to reject/remove it —
  /// this is where LTNC plugs in Algorithm 3.
  virtual bool should_drop(PacketId id, const BitVector& coeffs,
                           std::size_t degree) {
    (void)id;
    (void)coeffs;
    (void)degree;
    return false;
  }

  /// A packet entered the store with the given (already reduced) degree ≥ 2.
  virtual void on_stored(PacketId id, const BitVector& coeffs,
                         std::size_t degree, const Payload& payload) {
    (void)id;
    (void)coeffs;
    (void)degree;
    (void)payload;
  }

  /// A stored packet was reduced from `old_degree` to `new_degree` =
  /// old_degree − 1 (coeffs/payload are the reduced values).
  virtual void on_degree_changed(PacketId id, const BitVector& coeffs,
                                 std::size_t old_degree,
                                 std::size_t new_degree,
                                 const Payload& payload) {
    (void)id;
    (void)coeffs;
    (void)old_degree;
    (void)new_degree;
    (void)payload;
  }

  /// A stored packet left the store. `degree` is the degree the observer
  /// last saw for it (i.e. the bucket it must be deregistered from).
  virtual void on_removed(PacketId id, const BitVector& coeffs,
                          std::size_t degree) {
    (void)id;
    (void)coeffs;
    (void)degree;
  }

  /// Native `index` was decoded with the given value.
  virtual void on_native_decoded(NativeIndex index, const Payload& value) {
    (void)index;
    (void)value;
  }
};

enum class ReceiveResult {
  kDuplicate,          ///< reduced to zero by already-decoded natives
  kRejectedRedundant,  ///< vetoed by the observer's redundancy detector
  kDecodedNative,      ///< reduced to degree 1: decoded (and rippled)
  kStored,             ///< stored in the Tanner graph at degree ≥ 2
};

class BpDecoder {
 public:
  BpDecoder(std::size_t k, std::size_t payload_bytes,
            StoreObserver* observer = nullptr);

  std::size_t k() const { return k_; }
  std::size_t payload_bytes() const { return payload_bytes_; }

  /// Processes one incoming packet: reduce by decoded natives, consult the
  /// observer's redundancy veto (degree ≤ 3), then store or decode+ripple.
  ReceiveResult receive(const CodedPacket& packet);

  std::size_t decoded_count() const { return decoded_order_.size(); }
  bool complete() const { return decoded_count() == k_; }
  bool is_decoded(NativeIndex i) const { return decoded_mask_.test(i); }
  const Payload& native_payload(NativeIndex i) const;
  /// Natives in the order they were decoded.
  const std::vector<NativeIndex>& decoded_order() const {
    return decoded_order_;
  }
  /// Bitmask of decoded natives (used to pre-reduce advertised vectors).
  const BitVector& decoded_mask() const { return decoded_mask_; }

  /// Degree an advertised code vector would have after stripping decoded
  /// natives — the control-only evaluation a feedback channel performs.
  std::size_t residual_degree(const BitVector& coeffs) const {
    return coeffs.popcount_and_not(decoded_mask_);
  }

  // --- Packet-store introspection (for the LTNC recoding structures) ---
  std::size_t stored_count() const { return stored_count_; }
  /// Heap bytes the Tanner-graph store holds (slots, free list, adjacency
  /// pool, ripple queue); 0 once the decoder completes.
  std::size_t store_capacity_bytes() const;
  bool packet_alive(PacketId id) const {
    return id < slots_.size() && slots_[id].degree != 0;
  }
  const BitVector& packet_coeffs(PacketId id) const;
  const Payload& packet_payload(PacketId id) const;
  std::size_t packet_degree(PacketId id) const;

  /// Invokes fn(PacketId) for every live stored packet containing native x.
  template <typename Fn>
  void for_each_packet_containing(NativeIndex x, Fn&& fn) const {
    for (PacketId id : adjacency_.items(x)) {
      if (packet_alive(id) && slots_[id].packet.coeffs.test(x)) fn(id);
    }
  }

  /// Invokes fn(PacketId) for every live stored packet.
  template <typename Fn>
  void for_each_packet(Fn&& fn) const {
    for (PacketId id = 0; id < slots_.size(); ++id) {
      if (slots_[id].degree != 0) fn(id);
    }
  }

  /// Removes a stored packet (external policy decision, e.g. ablations).
  void remove_packet(PacketId id);

  const OpCounters& ops() const { return ops_; }
  OpCounters& mutable_ops() { return ops_; }

 private:
  /// A stored packet. degree 0 marks a free (recycled or retired) slot.
  struct Slot {
    CodedPacket packet;
    std::uint32_t degree = 0;
  };

  /// Reduces pkt in place by XORing out decoded natives; charges ops.
  void reduce_by_decoded(CodedPacket& pkt);
  /// Marks native decoded, notifies, reduces every packet containing it.
  void decode_native(NativeIndex i, Payload value);
  /// Drains the ripple queue (degree-1 packets) to a fixpoint.
  void process_ripple();
  /// Removes a packet: marks it dead first (so observer callbacks never see
  /// it as live), fires on_removed with `registered_degree` — the degree
  /// the observer last saw for it — then recycles the slot.
  void retire_slot(PacketId id, std::size_t registered_degree);
  /// Frees the packet store of a complete decoder (see header comment).
  void release_store();

  std::size_t k_;
  std::size_t payload_bytes_;
  StoreObserver* observer_;  ///< not owned; may be null

  BitVector decoded_mask_;
  std::vector<Payload> decoded_values_;
  std::vector<NativeIndex> decoded_order_;

  std::vector<Slot> slots_;
  std::vector<PacketId> free_list_;
  std::size_t stored_count_ = 0;
  PooledLists<PacketId> adjacency_;  ///< native -> packet ids, edge order
  std::vector<PacketId> ripple_;

  // Reusable scratch: decoded-value pointers for the arrival fold and the
  // edge snapshot taken while propagating a decoded native.
  std::vector<const Payload*> reduce_sources_;
  std::vector<PacketId> edges_scratch_;

  OpCounters ops_;
};

}  // namespace ltnc::lt
