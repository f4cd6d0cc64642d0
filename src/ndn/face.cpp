#include "ndn/face.hpp"

#include <type_traits>

namespace dapes::ndn {

void WifiFace::send_interest(const Interest& interest) {
  auto frame = std::make_shared<sim::Frame>();
  frame->sender = node_;
  frame->payload = interest.wire();  // shares the cached encoding
  frame->kind = "ndn-interest";
  ++interests_sent_;
  sim::Radio::SendCompleteCallback cb;
  if (next_interest_cb_) {
    cb = std::move(next_interest_cb_);
    next_interest_cb_ = nullptr;
  }
  radio_.send(std::move(frame), std::move(cb));
}

void WifiFace::send_data(DataPtr data) {
  if (data_window_.us <= 0) {
    broadcast_data(data);
    return;
  }
  if (pending_data_.contains(data->name())) {
    return;  // already queued
  }
  Duration delay = Duration::microseconds(static_cast<int64_t>(
      rng_.next_below(static_cast<uint64_t>(data_window_.us) + 1)));
  Name name = data->name();
  sim::EventId ev = sched_.schedule(delay, [this, name] { transmit_data(name); });
  pending_data_.emplace(std::move(name), std::make_pair(std::move(data), ev));
}

void WifiFace::transmit_data(const Name& name) {
  auto it = pending_data_.find(name);
  if (it == pending_data_.end()) return;
  DataPtr data = std::move(it->second.first);
  pending_data_.erase(it);
  broadcast_data(data);
}

void WifiFace::broadcast_data(const DataPtr& data) {
  ++data_sent_;
  auto frame = std::make_shared<sim::Frame>();
  frame->sender = node_;
  frame->payload = data->wire();  // cached: forwarding never re-serializes
  frame->kind = "ndn-data";
  // A packet that is exactly the decode of these bytes is what every
  // receiver's decode would build, so the frame carries it and
  // frame_packet hands it on. Any other packet (built locally, or mutated
  // since its decode) leaves the slot empty: the bytes are decoded on
  // receipt.
  if (data->is_wire_decode()) frame->packet = data;
  radio_.send(std::move(frame));
}

template <typename Packet>
std::shared_ptr<const Packet> frame_packet(const sim::Frame& frame) {
  constexpr uint8_t type =
      std::is_same_v<Packet, Interest> ? tlv::kInterest : tlv::kData;
  const BufferSlice& payload = frame.payload;
  if (payload.empty() || payload[0] != type) return nullptr;
  if (frame.packet == nullptr) {
    // Decoded from the wire, not taken from the sender's object (the
    // sender attached none: its packet is not the decode of these bytes),
    // so every receiver sees exactly what the bytes say. Its wire cache
    // and large fields are views into the frame's shared buffer.
    std::optional<Packet> decoded = Packet::decode(payload);
    if (!decoded) return nullptr;
    frame.packet = std::make_shared<const Packet>(std::move(*decoded));
  }
  // This function and WifiFace::broadcast_data are the only writers, and
  // both store the packet type the payload's leading byte names, so the
  // cast is exact.
  return std::static_pointer_cast<const Packet>(frame.packet);
}

template std::shared_ptr<const Interest> frame_packet<Interest>(
    const sim::Frame& frame);
template std::shared_ptr<const Data> frame_packet<Data>(
    const sim::Frame& frame);

void WifiFace::on_frame(const sim::FramePtr& frame) {
  const auto& payload = frame->payload;
  if (payload.empty()) return;
  // The NDN packet types (0x05/0x06) encode as a single leading byte, so
  // foreign frames (IP baselines) are skipped without any parsing.
  const uint8_t type = payload[0];
  if (type == tlv::kInterest) {
    // The Forwarder takes its own copy: the hop limit it decrements is
    // never the frame's shared packet's.
    if (auto interest = frame_packet<Interest>(*frame)) {
      deliver_interest(*interest);
    }
  } else if (type == tlv::kData) {
    DataPtr data = frame_packet<Data>(*frame);
    if (!data) return;
    // Suppress our own pending transmission of the same Data: someone
    // else answered first.
    auto it = pending_data_.find(data->name());
    if (it != pending_data_.end()) {
      sched_.cancel(it->second.second);
      pending_data_.erase(it);
      ++data_suppressed_;
    }
    deliver_data(std::move(data));
  }
  // Other frame types (IP baselines) are not ours; ignore.
}

}  // namespace dapes::ndn
