#include "netsvc/client.h"

#include <algorithm>

#include "core/obs/obs.h"
#include "net/rng.h"

namespace netclients::netsvc {

using core::serve::LookupResult;
using googledns::Transport;

void ClientStats::publish() const {
  obs::Registry& registry = obs::Registry::global();
  registry.counter("netsvc.client.udp_queries").add(udp_queries);
  registry.counter("netsvc.client.tcp_queries").add(tcp_queries);
  registry.counter("netsvc.client.responses").add(responses);
  registry.counter("netsvc.client.retries").add(retries);
  registry.counter("netsvc.client.timeouts").add(timeouts);
  registry.counter("netsvc.client.truncated_seen").add(truncated_seen);
  registry.counter("netsvc.client.escalations").add(escalations);
  registry.counter("netsvc.client.failed_chunks").add(failed_chunks);
  registry.counter("netsvc.client.breaker_skipped").add(breaker_skipped);
  registry.counter("netsvc.client.discarded").add(discarded);
  registry.counter("netsvc.client.oversize_queries").add(oversize_queries);
}

Client::Client(netsim::MessageBus& bus, net::Ipv4Addr address,
               net::Ipv4Addr server, ClientOptions options)
    : bus_(bus),
      address_(address),
      server_(server),
      options_(options),
      stream_(bus, address, options.stream),
      breaker_(options.breaker),
      transport_(options.transport) {
  stream_.on_frame([this](net::Ipv4Addr, std::uint32_t,
                          std::span<const std::uint8_t> frame, net::SimTime) {
    offer_response(frame);
  });
  bus_.attach(address_, [this](const netsim::Datagram& d, net::SimTime now) {
    if (d.proto == netsim::Proto::kTcp) {
      stream_.ingest(d, now);
      return;
    }
    offer_response(d.payload);
  });
}

Client::~Client() { bus_.detach(address_); }

void Client::lookup_many(std::span<const net::Ipv4Addr> addrs,
                         LookupResult* out) {
  const std::size_t batch = std::clamp<std::size_t>(
      options_.batch_per_message, 1, kMaxQuestionsPerMessage);
  for (std::size_t offset = 0; offset < addrs.size(); offset += batch) {
    const std::size_t take = std::min(batch, addrs.size() - offset);
    lookup_chunk(addrs.subspan(offset, take), out + offset);
  }
}

std::vector<LookupResult> Client::lookup_many(
    std::span<const net::Ipv4Addr> addrs) {
  std::vector<LookupResult> out(addrs.size());
  lookup_many(addrs, out.data());
  return out;
}

void Client::lookup_chunk(std::span<const net::Ipv4Addr> addrs,
                          LookupResult* out) {
  // Failure shape: misses. Overwritten on success.
  std::fill_n(out, addrs.size(), LookupResult{});
  if (!breaker_.allow(bus_.now())) {
    ++stats_.breaker_skipped;
    ++stats_.failed_chunks;
    // The refused chunk waits out the cool-down on the virtual clock. The
    // bus clock moves only with traffic, so without this the breaker
    // would never reach half-open and every later chunk would fail.
    bus_.run_until(breaker_.open_until());
    return;
  }
  const std::uint64_t chunk_key = net::stable_seed(
      std::uint64_t{addrs.front().value()}, std::uint64_t{addrs.size()});
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  int tries = 0;
  double send_at = bus_.now();
  while (true) {
    Transport transport = transport_;
    if (transport == Transport::kUdp &&
        query_wire_size(addrs.size()) > options_.udp_payload_cap) {
      // The bus would truncate the *query* in flight; ask over TCP
      // without flipping the sticky transport.
      ++stats_.oversize_queries;
      transport = Transport::kTcp;
    }
    if (next_id_ == 0) next_id_ = 1;
    const std::uint16_t id = next_id_++;
    const std::uint32_t conn = send_request(id, addrs, transport, send_at);
    pending_id_ = id;
    have_response_ = false;
    const bool answered =
        pump_until(send_at + options_.retry.timeout_for(transport));
    pending_id_ = 0;
    if (transport == Transport::kTcp) stream_.close(server_, conn);

    if (answered) {
      ++stats_.responses;
      if (parse_response(response_, &parsed_)) {
        if (parsed_.truncated) {
          ++stats_.truncated_seen;
          if (transport == Transport::kUdp) {
            // The answer exists but outgrew the UDP cap: re-ask over TCP
            // immediately. Protocol escalation is sticky and consumes no
            // retry budget — it is a success signal, not a failure.
            escalate();
            send_at = bus_.now();
            continue;
          }
          ++stats_.discarded;  // TC over TCP: nonsensical, treat as failure
        } else if (parsed_.rcode != dns::RCode::kNoError) {
          // The server refused the chunk outright (FORMERR/SERVFAIL):
          // retrying the same bytes cannot help.
          ++stats_.discarded;
          ++stats_.failed_chunks;
          breaker_.record_failure(bus_.now());
          return;
        } else if (parsed_.results.size() == addrs.size()) {
          std::copy(parsed_.results.begin(), parsed_.results.end(), out);
          breaker_.record_success();
          consecutive_soft_failures_ = 0;
          return;
        } else {
          ++stats_.discarded;  // short/overfull answer: retry
        }
      } else {
        ++stats_.discarded;  // unparseable response: retry
      }
    } else {
      ++stats_.timeouts;
      if (options_.retry.escalate_udp_to_tcp &&
          transport_ == Transport::kUdp &&
          ++consecutive_soft_failures_ >=
              options_.retry.escalation_threshold) {
        escalate();  // the paper's forced migration, soft-failure-driven
      }
    }
    if (++tries >= max_attempts) {
      ++stats_.failed_chunks;
      breaker_.record_failure(bus_.now());
      return;
    }
    ++stats_.retries;
    send_at = bus_.now() + options_.retry.backoff_before(tries, chunk_key);
  }
}

std::uint32_t Client::send_request(std::uint16_t id,
                                   std::span<const net::Ipv4Addr> addrs,
                                   Transport transport, double send_at) {
  const auto query = encode_query(id, addrs, arena_);
  if (transport == Transport::kUdp) {
    ++stats_.udp_queries;
    bus_.send(address_, server_, netsim::Proto::kUdp,
              {query.begin(), query.end()}, send_at,
              options_.request_latency);
    return 0;
  }
  ++stats_.tcp_queries;
  // A fresh connection per attempt: a mid-frame loss poisons only its own
  // stream, and the retry starts at offset zero instead of hanging.
  const std::uint32_t conn = next_conn_++;
  stream_.send_frame(server_, conn, query, send_at, options_.request_latency);
  return conn;
}

bool Client::pump_until(double deadline) {
  while (!have_response_) {
    const auto next = bus_.next_event_time();
    if (!next || *next > deadline) {
      bus_.run_until(deadline);
      break;
    }
    bus_.run_until(*next);
  }
  return have_response_;
}

void Client::offer_response(std::span<const std::uint8_t> payload) {
  if (have_response_ || payload.size() < 12) {
    ++stats_.discarded;
    return;
  }
  const std::uint16_t id =
      static_cast<std::uint16_t>(payload[0] << 8 | payload[1]);
  if (id != pending_id_) {
    ++stats_.discarded;  // stale: an attempt we already timed out
    return;
  }
  response_.assign(payload.begin(), payload.end());
  have_response_ = true;
}

void Client::escalate() {
  if (transport_ == Transport::kTcp) return;
  transport_ = Transport::kTcp;
  ++stats_.escalations;
  consecutive_soft_failures_ = 0;
}

}  // namespace netclients::netsvc
