// TimedSink — the benchmark's receiving protocol: a NodeProtocol that
// delegates to session::LtSinkProtocol and times deliver(), so BP decode
// time is measured without touching library code. The Endpoint calls
// deliver() from inside handle_frame(), so the decode span nests under
// the benchmark's handle_frame span and session self time excludes it.
//
// A recycling sink (ingest_ring) reports each finished decode to a
// listener, then starts a fresh LtSinkProtocol for the next round of the
// same conversation; to the Endpoint it is a content that never
// completes. A one-shot sink (file_udp) completes like the plain sink and
// counts the frames that still arrive afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "session/protocols.hpp"
#include "trace.hpp"

namespace perfbench {

class TimedSink;

/// Receives each finished decode of a recycling sink, on the thread that
/// delivered the completing frame, before the sink resets.
class CompletionListener {
 public:
  virtual ~CompletionListener() = default;
  virtual void on_complete(TimedSink& sink) = 0;
};

class TimedSink final : public ltnc::session::NodeProtocol {
 public:
  /// `id` tags this sink's spans (the delivery or conversation id). A
  /// non-null `listener` makes the sink recycle after every decode.
  TimedSink(std::size_t k, std::size_t payload_bytes, std::uint64_t id,
            CompletionListener* listener = nullptr)
      : k_(k),
        payload_bytes_(payload_bytes),
        id_(id),
        listener_(listener),
        inner_(std::make_unique<ltnc::session::LtSinkProtocol>(
            k, payload_bytes)) {}

  void deliver(const ltnc::CodedPacket& packet) override {
    if (inner_->complete()) {
      ++post_completion_;
    } else {
      ++frames_to_complete_;
    }
    {
      Span span(Op::kDeliver, id_);
      inner_->deliver(packet);
    }
    if (listener_ != nullptr && inner_->complete()) {
      listener_->on_complete(*this);
      ops_ += inner_->decode_ops();
      inner_ = std::make_unique<ltnc::session::LtSinkProtocol>(
          k_, payload_bytes_);
      frames_to_complete_ = 0;
      ++round_;
    }
  }
  bool would_reject(const ltnc::BitVector& coeffs) const override {
    return inner_->would_reject(coeffs);
  }
  std::optional<ltnc::CodedPacket> emit(ltnc::Rng& /*rng*/) override {
    return std::nullopt;
  }
  bool can_emit() const override { return false; }
  std::size_t useful_packets() const override {
    return inner_->useful_packets();
  }
  bool complete() const override {
    return listener_ == nullptr && inner_->complete();
  }
  bool finish_and_verify(std::uint64_t content_seed) override {
    Span span(Op::kSinkVerify, id_);
    return inner_->finish_and_verify(content_seed);
  }
  ltnc::OpCounters decode_ops() const override {
    ltnc::OpCounters total = ops_;
    total += inner_->decode_ops();
    return total;
  }
  ltnc::OpCounters recode_ops() const override { return {}; }

  const ltnc::lt::BpDecoder& decoder() const { return inner_->decoder(); }
  std::size_t k() const { return k_; }
  std::uint64_t id() const { return id_; }
  /// Frames delivered to the current decode (the completing one included).
  std::uint64_t frames_to_complete() const { return frames_to_complete_; }
  /// Frames delivered after a one-shot sink completed.
  std::uint64_t post_completion() const { return post_completion_; }
  /// Decodes this recycling sink has finished.
  std::uint64_t round() const { return round_; }

 private:
  std::size_t k_;
  std::size_t payload_bytes_;
  std::uint64_t id_;
  CompletionListener* listener_;
  std::unique_ptr<ltnc::session::LtSinkProtocol> inner_;
  ltnc::OpCounters ops_;  ///< finished rounds
  std::uint64_t frames_to_complete_ = 0;
  std::uint64_t post_completion_ = 0;
  std::uint64_t round_ = 0;
};

}  // namespace perfbench
