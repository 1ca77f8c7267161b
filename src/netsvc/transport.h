#pragma once

// Stream transport over the datagram bus: RFC 1035 §4.2.2 TCP framing.
//
// The bus carries datagrams; DNS-over-TCP carries a byte stream of
// 2-byte-length-prefixed messages. `StreamSocket` bridges the two: a
// frame (one wire message) is length-prefixed, cut into MSS-sized
// segments, and each segment rides the bus as a `Proto::kTcp` datagram
// tagged with (connection id, stream offset). The receiver reassembles
// per connection — segments must arrive in offset order; a gap (a lost,
// reordered, or blackholed segment) resets the connection, because
// without real TCP retransmission a gapped stream can never resynchronize
// on frame boundaries. Reset is skip-and-count, never hang: the peer's
// retry opens a fresh connection id and starts at offset zero.
//
// The socket does not attach itself to the bus: its owner registers one
// bus handler per address and routes `Proto::kTcp` datagrams into
// `ingest` (the netsvc server multiplexes UDP queries and TCP segments
// on one address this way).
//
// Determinism: segments of one frame are sent with identical latency, so
// the bus's (deliver_at, sequence) order preserves send order on a
// fault-free link; FaultPlane verdicts are keyed by (seed, src, dst,
// sequence) and replay byte-identically.

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "netsim/bus.h"

namespace netclients::netsvc {

struct StreamOptions {
  /// Largest accepted frame. The RFC 1035 length prefix caps this at
  /// 0xFFFF; anything larger declared by a peer resets the connection.
  std::size_t max_frame = 0xFFFF;
  /// Stream bytes per segment (the modeled MSS).
  std::size_t segment_bytes = 1200;
  /// Reassembly-state bound: at most this many live inbound connections;
  /// opening one more evicts the oldest.
  std::size_t max_connections = 64;
};

/// Event counts of one socket. Opt-in publish(), BusStats-style.
struct StreamStats {
  std::uint64_t segments_in = 0;
  std::uint64_t segments_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  /// Connections dropped on a stream gap or oversize frame declaration.
  std::uint64_t resets = 0;
  /// Segments for an unknown connection not starting at offset zero
  /// (the tail of an already-reset stream), or with a short header.
  std::uint64_t orphan_segments = 0;
  /// Zero-length frames skipped (legal no-ops in the stream).
  std::uint64_t zero_frames = 0;
  /// Frames refused for declaring a length above max_frame.
  std::uint64_t oversize_frames = 0;
  /// Reassembly states evicted by the max_connections bound.
  std::uint64_t evicted = 0;

  /// Registers the values as `netsvc.stream.<prefix>.*` counters in the
  /// global registry ("client"/"server" prefixes keep the two sides'
  /// exports distinct). Call once per run.
  void publish(std::string_view prefix) const;
};

class StreamSocket {
 public:
  /// Called for every completely reassembled frame. The span borrows the
  /// connection's reassembly buffer — valid only during the call. The
  /// handler must not call close() on the delivering connection.
  using FrameHandler =
      std::function<void(net::Ipv4Addr peer, std::uint32_t conn,
                         std::span<const std::uint8_t> frame,
                         net::SimTime now)>;

  StreamSocket(netsim::MessageBus& bus, net::Ipv4Addr local,
               StreamOptions options = {})
      : bus_(bus), local_(local), options_(options) {}

  void on_frame(FrameHandler handler) { on_frame_ = std::move(handler); }

  /// Feeds one inbound `Proto::kTcp` datagram into reassembly; fires
  /// `on_frame` for each frame it completes.
  void ingest(const netsim::Datagram& datagram, net::SimTime now);

  /// Length-prefixes `frame`, segments it, and sends every segment to
  /// `peer` at `now` with `latency`. Precondition: frame.size() <=
  /// max_frame.
  void send_frame(net::Ipv4Addr peer, std::uint32_t conn,
                  std::span<const std::uint8_t> frame, net::SimTime now,
                  double latency);

  /// Drops all local state for (peer, conn) — both the inbound
  /// reassembly buffer and the outbound offset. Not counted as a reset.
  /// A reset or an eviction drops the same state: a connection whose
  /// inbound stream is gone can never carry a request again, so a peer
  /// that never calls close() (a server) stays within max_connections.
  void close(net::Ipv4Addr peer, std::uint32_t conn);

  /// True while (peer, conn) — by `key` — has inbound reassembly state.
  bool receiving(std::uint64_t conn_key) const {
    return recv_.contains(conn_key);
  }
  /// Live per-connection entries: reassembly states and send offsets.
  std::size_t receive_states() const { return recv_.size(); }
  std::size_t send_states() const { return send_offsets_.size(); }

  const StreamStats& stats() const { return stats_; }

  /// Canonical map key for one (peer, connection) pair — shared with
  /// owners that keep their own per-connection state (the server's
  /// backpressure windows).
  static std::uint64_t key(net::Ipv4Addr peer, std::uint32_t conn) {
    return (std::uint64_t{peer.value()} << 32) | conn;
  }

 private:
  struct RecvState {
    std::uint32_t expected_offset = 0;
    std::vector<std::uint8_t> buffer;
    std::uint64_t opened_seq = 0;  // eviction order
  };

  /// Extracts every complete frame from the connection's buffer; returns
  /// false when the stream declared an oversize frame (caller resets).
  bool drain_frames(net::Ipv4Addr peer, std::uint32_t conn, RecvState& state,
                    net::SimTime now);
  /// Erases both maps' entries for one connection.
  void drop(std::uint64_t conn_key);

  netsim::MessageBus& bus_;
  net::Ipv4Addr local_;
  StreamOptions options_;
  FrameHandler on_frame_;
  std::unordered_map<std::uint64_t, RecvState> recv_;
  std::unordered_map<std::uint64_t, std::uint32_t> send_offsets_;
  std::uint64_t next_opened_seq_ = 0;
  StreamStats stats_;
};

}  // namespace netclients::netsvc
