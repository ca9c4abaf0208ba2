#include "bmac/reliable.hpp"

#include <algorithm>

#include "common/crc32.hpp"

namespace bm::bmac {

namespace {
constexpr std::uint8_t kSyncFlag = 0x01;
}  // namespace

Bytes SequencedFrame::encode() const {
  Bytes out;
  out.reserve(wire_size());
  put_u64le(out, seq);
  out.push_back(sync ? kSyncFlag : 0);
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32le(out, crc32(ByteView(out)));
  return out;
}

std::optional<SequencedFrame> SequencedFrame::decode(ByteView wire) {
  if (wire.size() < kGbnFrameOverhead) return std::nullopt;
  const std::size_t body = wire.size() - 4;
  if (crc32(wire.subspan(0, body)) != get_u32le(wire, body))
    return std::nullopt;
  SequencedFrame frame;
  frame.seq = get_u64le(wire, 0);
  const std::uint8_t flags = wire[8];
  if ((flags & ~kSyncFlag) != 0) return std::nullopt;
  frame.sync = (flags & kSyncFlag) != 0;
  frame.payload.assign(wire.begin() + 9, wire.begin() + static_cast<std::ptrdiff_t>(body));
  return frame;
}

Bytes encode_ack(std::uint64_t next_expected) {
  Bytes out;
  out.reserve(kGbnAckWireSize);
  put_u64le(out, next_expected);
  put_u32le(out, crc32(ByteView(out)));
  return out;
}

std::optional<std::uint64_t> decode_ack(ByteView wire) {
  if (wire.size() != kGbnAckWireSize) return std::nullopt;
  if (crc32(wire.subspan(0, 8)) != get_u32le(wire, 8))
    return std::nullopt;
  return get_u64le(wire, 0);
}

GbnSender::GbnSender(sim::Simulation& sim, Config config, TransmitFn transmit)
    : sim_(sim), config_(config), transmit_(std::move(transmit)) {}

void GbnSender::send(Bytes encoded_packet) {
  backlog_.push_back(std::move(encoded_packet));
  pump();
}

void GbnSender::pump() {
  while (!backlog_.empty() && outstanding_.size() < config_.window) {
    SequencedFrame frame;
    frame.seq = next_seq_++;
    frame.payload = std::move(backlog_.front());
    backlog_.pop_front();
    transmit_(frame);
    ++stats_.frames_sent;
    outstanding_.push_back(std::move(frame));
  }
  if (!outstanding_.empty()) arm_timer();
}

void GbnSender::arm_timer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  if (current_rto_ <= 0) current_rto_ = config_.retransmit_timeout;
  timer_ = sim_.schedule(current_rto_, [this] {
    timer_armed_ = false;
    on_timeout();
  });
}

void GbnSender::on_timeout() {
  if (outstanding_.empty()) return;
  ++stats_.timeouts;
  ++attempts_;
  if (config_.retransmit_cap > 0 && attempts_ > config_.retransmit_cap) {
    resync();
    return;
  }
  // Go-Back-N: retransmit every unacknowledged frame, oldest first.
  for (const SequencedFrame& frame : outstanding_) {
    transmit_(frame);
    ++stats_.retransmissions;
  }
  // Exponential backoff: each fruitless round waits longer, so a congested
  // or partitioned path is not hammered at the base rate.
  if (config_.rto_backoff > 1.0) {
    current_rto_ = std::min(
        config_.rto_max,
        static_cast<sim::Time>(static_cast<double>(current_rto_) *
                               config_.rto_backoff));
  }
  arm_timer();
}

void GbnSender::resync() {
  // The retransmission budget for this window is exhausted: whatever blocks
  // those frames carried will never complete at the receiver. Give up on
  // them (the peer's watchdog falls back to software validation), tell the
  // application which sequence range died, and move the stream past the gap
  // with a SYNC frame so later blocks still flow.
  const std::uint64_t first = base_;
  const std::uint64_t last = next_seq_ - 1;
  stats_.frames_abandoned += outstanding_.size();
  ++stats_.stream_resyncs;
  outstanding_.clear();
  base_ = next_seq_;
  attempts_ = 0;
  current_rto_ = config_.retransmit_timeout;

  SequencedFrame sync;
  sync.seq = next_seq_++;
  sync.sync = true;
  transmit_(sync);
  ++stats_.frames_sent;
  outstanding_.push_back(std::move(sync));
  arm_timer();

  if (on_failure_) on_failure_(first, last);
}

void GbnSender::on_ack(std::uint64_t next_expected) {
  ++stats_.acks_received;
  if (next_expected <= base_) return;  // stale cumulative ACK
  while (base_ < next_expected && !outstanding_.empty()) {
    outstanding_.pop_front();
    ++base_;
  }
  // Window progress: the path is alive again — reset the backoff state.
  attempts_ = 0;
  current_rto_ = config_.retransmit_timeout;
  if (timer_armed_) {
    sim_.cancel(timer_);
    timer_armed_ = false;
  }
  pump();
}

void GbnReceiver::on_frame(const SequencedFrame& frame) {
  if (frame.sync) {
    // Sender-initiated resynchronization: accept the jump (it only ever
    // moves forward) and ACK so the sender's window can advance.
    if (frame.seq >= next_expected_) {
      next_expected_ = frame.seq + 1;
      ++stats_.stream_resyncs;
    }
    ack_(next_expected_);
    return;
  }
  if (frame.seq == next_expected_) {
    ++next_expected_;
    ++stats_.frames_delivered;
    deliver_(frame.payload);
  } else {
    // Out-of-order or duplicate: Go-Back-N receivers keep no buffer.
    ++stats_.frames_discarded;
  }
  // Cumulative ACK either way (re-ACKs trigger fast recovery at the sender
  // when combined with the timeout).
  ack_(next_expected_);
}

void GbnReceiver::on_wire(ByteView wire) {
  const auto frame = SequencedFrame::decode(wire);
  if (!frame) {
    // Corrupted or truncated: nothing in it can be trusted, not even the
    // sequence number — drop silently and let the timeout recover.
    ++stats_.frames_corrupted;
    return;
  }
  on_frame(*frame);
}

}  // namespace bm::bmac
