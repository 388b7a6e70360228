// Frame-level model of a shared 10 Mb/s Ethernet segment (the paper's
// testbed interconnect).
//
// The medium is a serially-reusable resource: one frame transmits at a time,
// contending senders queue FIFO (a fair approximation of CSMA/CD on the
// paper's "quiet system").  Every transmission pays per-frame overhead
// (preamble, MAC header, FCS, inter-frame gap) and frames below the minimum
// Ethernet frame size are padded, so small-message costs are modelled
// faithfully.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/coro.hpp"
#include "sim/wait.hpp"

namespace cpe::net {

struct EthernetParams {
  double bandwidth_bps = 10e6;        ///< 10 Mb/s, per the paper
  std::size_t mtu = 1500;             ///< max payload per frame (IP packet)
  std::size_t header_bytes = 18;      ///< MAC header 14 + FCS 4
  std::size_t preamble_bytes = 8;     ///< preamble + SFD
  std::size_t gap_bytes = 12;         ///< inter-frame gap, in byte-times
  std::size_t min_payload = 46;       ///< frames are padded up to this
  sim::Time hop_latency = 100e-6;     ///< NIC + driver processing per frame
};

class Ethernet {
 public:
  Ethernet(sim::Engine& eng, EthernetParams params = {})
      : eng_(eng), params_(params), medium_(eng, 1), attach_changed_(eng) {
    CPE_EXPECTS(params.bandwidth_bps > 0);
    CPE_EXPECTS(params.mtu > 0);
  }

  [[nodiscard]] const EthernetParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] sim::Engine& engine() const noexcept { return eng_; }

  /// Wire time for one frame carrying `payload` bytes (<= mtu), including
  /// framing overhead, padding, and the inter-frame gap.
  [[nodiscard]] sim::Time frame_time(std::size_t payload) const {
    CPE_EXPECTS(payload <= params_.mtu);
    const std::size_t p =
        payload < params_.min_payload ? params_.min_payload : payload;
    const std::size_t wire_bytes =
        p + params_.header_bytes + params_.preamble_bytes + params_.gap_bytes;
    return static_cast<double>(wire_bytes) * 8.0 / params_.bandwidth_bps;
  }

  /// Occupy the medium for one frame of `payload` bytes; completes when the
  /// frame is fully on the wire.  Delivery latency (hop_latency) is the
  /// caller's to add — it overlaps with the next frame's transmission.
  [[nodiscard]] sim::Co<void> transmit_frame(std::size_t payload) {
    co_await medium_.acquire();
    total_frames_ += 1;
    total_payload_bytes_ += payload;
    co_await sim::Delay(eng_, frame_time(payload));
    medium_.release();
  }

  /// Number of frames needed for `bytes` of payload.
  [[nodiscard]] std::size_t frames_for(std::size_t bytes) const {
    return bytes == 0 ? 1 : (bytes + params_.mtu - 1) / params_.mtu;
  }

  /// Lower bound: wire time for `bytes` of payload with full-MTU frames and
  /// no protocol traffic.  Used as a sanity reference in tests.
  [[nodiscard]] sim::Time ideal_transfer_time(std::size_t bytes) const {
    const std::size_t full = bytes / params_.mtu;
    const std::size_t rest = bytes % params_.mtu;
    sim::Time t = static_cast<double>(full) * frame_time(params_.mtu);
    if (rest > 0) t += frame_time(rest);
    return t;
  }

  [[nodiscard]] std::uint64_t total_frames() const noexcept {
    return total_frames_;
  }
  [[nodiscard]] std::uint64_t total_payload_bytes() const noexcept {
    return total_payload_bytes_;
  }

  // -- Attachment (fault model) ---------------------------------------------
  // A node is attached unless a host crash, freeze, or network partition
  // detached it.  Frames *to* a detached node vanish (no ack, so reliable
  // protocols retransmit and eventually give up); frames *from* one cannot
  // be sent at all.  Transports poll attached() and may park on
  // attach_changed() to ride out transient outages.
  void set_attached(std::uint32_t node, bool on) {
    const bool was = attached(node);
    if (was == on) return;
    if (on)
      std::erase(detached_, node);
    else
      detached_.push_back(node);
    attach_changed_.fire();
  }
  [[nodiscard]] bool attached(std::uint32_t node) const noexcept {
    for (std::uint32_t d : detached_)
      if (d == node) return false;
    return true;
  }
  /// Fires on every attach/detach transition of any node.
  [[nodiscard]] sim::Trigger& attach_changed() noexcept {
    return attach_changed_;
  }

  // -- Partitions (fault model) ---------------------------------------------
  // A network partition splits the segment into isolated islands.  Every
  // node starts in group 0; moving a node to a non-zero group cuts its links
  // to every node in a different group while traffic *within* each island
  // still flows.  Unlike detachment, a partitioned node keeps transmitting —
  // its frames simply never reach the far side, which is exactly the
  // scenario that produces split-brain coordinators.
  void set_partition_group(std::uint32_t node, int group) {
    if (partition_group(node) == group) return;
    std::erase_if(partition_,
                  [node](const auto& e) { return e.first == node; });
    if (group != 0) partition_.emplace_back(node, group);
    attach_changed_.fire();
  }
  [[nodiscard]] int partition_group(std::uint32_t node) const noexcept {
    for (const auto& [n, g] : partition_)
      if (n == node) return g;
    return 0;
  }
  /// True when frames from `a` can reach `b`: both NICs up, same island.
  [[nodiscard]] bool reachable(std::uint32_t a, std::uint32_t b) const
      noexcept {
    return attached(a) && attached(b) &&
           partition_group(a) == partition_group(b);
  }

 private:
  sim::Engine& eng_;
  EthernetParams params_;
  sim::Semaphore medium_;
  sim::Trigger attach_changed_;
  std::vector<std::uint32_t> detached_;
  std::vector<std::pair<std::uint32_t, int>> partition_;
  std::uint64_t total_frames_ = 0;
  std::uint64_t total_payload_bytes_ = 0;
};

}  // namespace cpe::net
