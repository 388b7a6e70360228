// Stream-connection model in the style of 1994 TCP over the shared Ethernet.
//
// Used for PVM's direct task-to-task route and for MPVM's state transfer to
// the skeleton process.  The model charges: a three-segment handshake, MSS
// segmentation with TCP/IP header overhead per segment, and acknowledgment
// frames that occupy the same shared medium (one ack per `ack_every` data
// segments).  On a quiet LAN the resulting goodput is ~0.9 x line rate —
// matching the paper's "raw TCP" lower-bound column in Table 2.
#pragma once

#include <any>
#include <memory>

#include "net/network.hpp"
#include "sim/channel.hpp"

namespace cpe::net {

struct TcpParams {
  std::size_t mss = 1460;          ///< payload per segment (MTU - 40)
  std::size_t header_bytes = 40;   ///< TCP 20 + IP 20
  std::size_t ack_payload = 40;    ///< header-only ack segment
  std::size_t ack_every = 1;       ///< data segments per ack
  sim::Time connect_proc = 2e-3;   ///< socket setup + accept processing
  /// How long an established stream rides out a detached peer before the
  /// connection is declared dead (DeliveryError).  Models the TCP
  /// retransmission back-off giving up.
  sim::Time stall_timeout = 5.0;
};

/// A bidirectional stream between two nodes.  Create with TcpStream::connect
/// (which charges the handshake); then either side may send().
class TcpStream {
 public:
  struct Delivery {
    std::size_t bytes = 0;
    std::any payload;
  };

  /// Open a connection (blocks for handshake + connection processing).
  /// Throws DeliveryError when either endpoint is detached.
  [[nodiscard]] static sim::Co<std::shared_ptr<TcpStream>> connect(
      Network& net, NodeId a, NodeId b, TcpParams params = {});

  /// Push `bytes` through the stream from `from`; completes when the final
  /// segment is delivered to the peer.  `payload` (optional) is handed to
  /// the peer's recv() at completion.  When the peer detaches mid-stream the
  /// connection stalls; after `stall_timeout` it throws DeliveryError.
  [[nodiscard]] sim::Co<void> send(NodeId from, std::size_t bytes,
                                   std::any payload = {});

  /// Receive the next delivery addressed to `at`.
  [[nodiscard]] sim::Co<Delivery> recv(NodeId at);

  [[nodiscard]] const TcpParams& params() const noexcept { return params_; }

  /// Time the model needs to push `bytes` through an *established* stream on
  /// an idle medium (analytic; used by tests as a cross-check).
  [[nodiscard]] sim::Time ideal_stream_time(std::size_t bytes) const;

  TcpStream(Network& net, NodeId a, NodeId b, TcpParams params);

 private:
  [[nodiscard]] bool local() const noexcept { return a_ == b_; }
  /// Block until both endpoints are attached; throws DeliveryError if the
  /// outage outlasts stall_timeout.
  [[nodiscard]] sim::Co<void> await_link(NodeId peer);

  Network& net_;
  NodeId a_;
  NodeId b_;
  TcpParams params_;
  sim::Channel<Delivery> to_a_;
  sim::Channel<Delivery> to_b_;
};

}  // namespace cpe::net
