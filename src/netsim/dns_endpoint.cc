#include "netsim/dns_endpoint.h"

#include <cassert>
#include <memory>
#include <utility>

#include "dns/packet.h"
#include "netsim/endpoint.h"

namespace netclients::netsim {
namespace {

googledns::Transport transport_of(Proto proto) {
  return proto == Proto::kTcp ? googledns::Transport::kTcp
                              : googledns::Transport::kUdp;
}

}  // namespace

void attach_google_dns(MessageBus& bus, net::Ipv4Addr address,
                       googledns::GooglePublicDns& server,
                       GoogleEndpointOptions options) {
  assert(options.locate);
  // The bus delivers on one thread; the arena lives with the handler and
  // is recycled across every packet this endpoint answers.
  auto arena = std::make_shared<dns::WireArena>();
  attach_payload_endpoint(
      bus, address,
      [&server, arena, options = std::move(options)](
          const Datagram& d, net::SimTime now) -> PayloadReply {
        const auto reply = server.handle_wire(
            d.payload, options.locate(d.src), d.src.value(), now,
            transport_of(d.proto), *arena, options.vp_id);
        return {reply, options.reply_latency};  // empty: dropped
      });
}

void attach_authoritative(MessageBus& bus, net::Ipv4Addr address,
                          const dnssrv::AuthoritativeServer& server,
                          AuthoritativeEndpointOptions options) {
  auto arena = std::make_shared<dns::WireArena>();
  attach_payload_endpoint(
      bus, address,
      [&server, arena, options](const Datagram& d,
                                net::SimTime) -> PayloadReply {
        const auto reply = server.handle_wire(d.payload, options.epoch, *arena);
        return {reply, options.reply_latency};  // empty: dropped
      });
}

}  // namespace netclients::netsim
