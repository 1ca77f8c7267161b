#include "netsvc/transport.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "core/obs/obs.h"

namespace netclients::netsvc {

namespace {
constexpr std::size_t kSegmentHeader = 8;  // u32 conn, u32 stream offset
}  // namespace

void StreamStats::publish(std::string_view prefix) const {
  obs::Registry& registry = obs::Registry::global();
  const std::string base = "netsvc.stream." + std::string(prefix) + ".";
  registry.counter(base + "segments_in").add(segments_in);
  registry.counter(base + "segments_out").add(segments_out);
  registry.counter(base + "frames_in").add(frames_in);
  registry.counter(base + "frames_out").add(frames_out);
  registry.counter(base + "resets").add(resets);
  registry.counter(base + "orphan_segments").add(orphan_segments);
  registry.counter(base + "zero_frames").add(zero_frames);
  registry.counter(base + "oversize_frames").add(oversize_frames);
  registry.counter(base + "evicted").add(evicted);
}

void StreamSocket::ingest(const netsim::Datagram& datagram, net::SimTime now) {
  ++stats_.segments_in;
  const auto& payload = datagram.payload;
  if (payload.size() < kSegmentHeader) {
    ++stats_.orphan_segments;
    return;
  }
  const std::uint32_t conn = (std::uint32_t{payload[0]} << 24) |
                             (std::uint32_t{payload[1]} << 16) |
                             (std::uint32_t{payload[2]} << 8) | payload[3];
  const std::uint32_t offset = (std::uint32_t{payload[4]} << 24) |
                               (std::uint32_t{payload[5]} << 16) |
                               (std::uint32_t{payload[6]} << 8) | payload[7];
  const std::uint64_t conn_key = key(datagram.src, conn);
  auto it = recv_.find(conn_key);
  if (it == recv_.end()) {
    if (offset != 0) {
      // Tail of a stream whose head was lost (or whose state was already
      // reset/evicted): without the missing prefix the frame boundary is
      // unknowable, so the segment is skipped and counted.
      ++stats_.orphan_segments;
      return;
    }
    if (recv_.size() >= options_.max_connections) {
      auto oldest = recv_.begin();
      for (auto walk = recv_.begin(); walk != recv_.end(); ++walk) {
        if (walk->second.opened_seq < oldest->second.opened_seq) oldest = walk;
      }
      drop(oldest->first);
      ++stats_.evicted;
    }
    it = recv_.emplace(conn_key, RecvState{}).first;
    it->second.opened_seq = next_opened_seq_++;
  }
  RecvState& state = it->second;
  if (offset != state.expected_offset) {
    // Gap: a segment was lost, blackholed, or jittered out of order.
    ++stats_.resets;
    drop(conn_key);
    return;
  }
  state.buffer.insert(state.buffer.end(), payload.begin() + kSegmentHeader,
                      payload.end());
  state.expected_offset +=
      static_cast<std::uint32_t>(payload.size() - kSegmentHeader);
  if (!drain_frames(datagram.src, conn, state, now)) {
    ++stats_.resets;
    drop(conn_key);
  }
}

bool StreamSocket::drain_frames(net::Ipv4Addr peer, std::uint32_t conn,
                                RecvState& state, net::SimTime now) {
  std::size_t consumed = 0;
  auto& buffer = state.buffer;
  while (buffer.size() - consumed >= 2) {
    const std::size_t length = (std::size_t{buffer[consumed]} << 8) |
                               buffer[consumed + 1];
    if (length == 0) {
      ++stats_.zero_frames;
      consumed += 2;
      continue;
    }
    if (length > options_.max_frame) {
      ++stats_.oversize_frames;
      return false;
    }
    if (buffer.size() - consumed < 2 + length) break;  // frame incomplete
    ++stats_.frames_in;
    if (on_frame_) {
      on_frame_(peer, conn,
                std::span<const std::uint8_t>(buffer.data() + consumed + 2,
                                              length),
                now);
    }
    consumed += 2 + length;
  }
  if (consumed > 0) {
    buffer.erase(buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return true;
}

void StreamSocket::send_frame(net::Ipv4Addr peer, std::uint32_t conn,
                              std::span<const std::uint8_t> frame,
                              net::SimTime now, double latency) {
  assert(frame.size() <= options_.max_frame);
  const std::uint64_t conn_key = key(peer, conn);
  std::uint32_t offset = 0;
  if (auto it = send_offsets_.find(conn_key); it != send_offsets_.end()) {
    offset = it->second;
  }
  // The stream bytes: 2-byte big-endian length prefix, then the frame.
  std::vector<std::uint8_t> stream;
  stream.reserve(2 + frame.size());
  stream.push_back(static_cast<std::uint8_t>(frame.size() >> 8));
  stream.push_back(static_cast<std::uint8_t>(frame.size()));
  stream.insert(stream.end(), frame.begin(), frame.end());

  const std::size_t mss = std::max<std::size_t>(1, options_.segment_bytes);
  for (std::size_t at = 0; at < stream.size(); at += mss) {
    const std::size_t take = std::min(mss, stream.size() - at);
    std::vector<std::uint8_t> payload;
    payload.reserve(kSegmentHeader + take);
    payload.push_back(static_cast<std::uint8_t>(conn >> 24));
    payload.push_back(static_cast<std::uint8_t>(conn >> 16));
    payload.push_back(static_cast<std::uint8_t>(conn >> 8));
    payload.push_back(static_cast<std::uint8_t>(conn));
    payload.push_back(static_cast<std::uint8_t>(offset >> 24));
    payload.push_back(static_cast<std::uint8_t>(offset >> 16));
    payload.push_back(static_cast<std::uint8_t>(offset >> 8));
    payload.push_back(static_cast<std::uint8_t>(offset));
    payload.insert(payload.end(), stream.begin() + at,
                   stream.begin() + at + take);
    bus_.send(local_, peer, netsim::Proto::kTcp, std::move(payload), now,
              latency);
    offset += static_cast<std::uint32_t>(take);
    ++stats_.segments_out;
  }
  send_offsets_[conn_key] = offset;
  ++stats_.frames_out;
}

void StreamSocket::close(net::Ipv4Addr peer, std::uint32_t conn) {
  drop(key(peer, conn));
}

void StreamSocket::drop(std::uint64_t conn_key) {
  recv_.erase(conn_key);
  send_offsets_.erase(conn_key);
}

}  // namespace netclients::netsvc
