// Tests for the packet-level message bus: delivery ordering, latency,
// UDP truncation + TCP retry, and a full DNS request/response exchange
// between bus endpoints using the wire codec.

#include <gtest/gtest.h>

#include "anycast/catchment.h"
#include "anycast/pop.h"
#include "dns/wire.h"
#include "dnssrv/authoritative.h"
#include "googledns/google_dns.h"
#include "netsim/bus.h"
#include "netsim/dns_endpoint.h"
#include "netsim/endpoint.h"

namespace netclients::netsim {
namespace {

const net::Ipv4Addr kClient = *net::Ipv4Addr::parse("10.0.0.1");
const net::Ipv4Addr kServer = *net::Ipv4Addr::parse("10.0.0.53");

TEST(Bus, DeliversInTimestampOrder) {
  MessageBus bus;
  std::vector<int> order;
  bus.attach(kServer, [&](const Datagram& d, net::SimTime) {
    order.push_back(d.payload[0]);
  });
  bus.send(kClient, kServer, Proto::kUdp, {2}, 0.0, 0.2);
  bus.send(kClient, kServer, Proto::kUdp, {1}, 0.0, 0.1);
  bus.send(kClient, kServer, Proto::kUdp, {3}, 0.0, 0.3);
  EXPECT_EQ(bus.run_until(1.0), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Bus, FifoOnEqualTimestamps) {
  MessageBus bus;
  std::vector<int> order;
  bus.attach(kServer, [&](const Datagram& d, net::SimTime) {
    order.push_back(d.payload[0]);
  });
  for (int i = 0; i < 5; ++i) {
    bus.send(kClient, kServer, Proto::kUdp,
             {static_cast<std::uint8_t>(i)}, 0.0, 0.5);
  }
  bus.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Bus, RespectsDeadline) {
  MessageBus bus;
  int received = 0;
  bus.attach(kServer, [&](const Datagram&, net::SimTime) { ++received; });
  bus.send(kClient, kServer, Proto::kUdp, {1}, 0.0, 0.1);
  bus.send(kClient, kServer, Proto::kUdp, {2}, 0.0, 5.0);
  EXPECT_EQ(bus.run_until(1.0), 1u);
  EXPECT_EQ(received, 1);
  EXPECT_FALSE(bus.idle());
  bus.run_until(10.0);
  EXPECT_EQ(received, 2);
  EXPECT_TRUE(bus.idle());
}

TEST(Bus, DropsToUnattachedAddress) {
  MessageBus bus;
  bus.send(kClient, kServer, Proto::kUdp, {1}, 0.0, 0.1);
  EXPECT_EQ(bus.run_until(1.0), 0u);
  EXPECT_EQ(bus.stats().dropped, 1u);
}

TEST(Bus, HandlersCanReply) {
  MessageBus bus;
  double reply_time = -1;
  bus.attach(kServer, [&](const Datagram& d, net::SimTime now) {
    bus.send(kServer, d.src, d.proto, {42}, now, 0.05);
  });
  bus.attach(kClient, [&](const Datagram& d, net::SimTime now) {
    ASSERT_EQ(d.payload[0], 42);
    reply_time = now;
  });
  bus.send(kClient, kServer, Proto::kUdp, {1}, 0.0, 0.1);
  bus.run_until(1.0);
  EXPECT_NEAR(reply_time, 0.15, 1e-9);
}

TEST(Bus, UdpTruncationSetsTcBit) {
  MessageBus bus(512);
  bool saw_tc = false;
  bus.attach(kClient, [&](const Datagram& d, net::SimTime) {
    const auto decoded = dns::decode(d.payload);
    ASSERT_TRUE(decoded.ok) << decoded.error;
    saw_tc = decoded.message.header.tc;
    EXPECT_TRUE(decoded.message.answers.empty());
  });
  // A response fattened past 512 bytes.
  dns::DnsMessage big = dns::make_response(
      dns::make_query(7, *dns::DnsName::parse("big.example"),
                      dns::RecordType::kTxt, true),
      dns::RCode::kNoError);
  big.answers.push_back(dns::ResourceRecord{
      *dns::DnsName::parse("big.example"), dns::RecordType::kTxt,
      dns::kClassIn, 60, dns::TxtData{std::string(900, 'x')}});
  bus.send(kServer, kClient, Proto::kUdp, dns::encode(big), 0.0, 0.1);
  bus.run_until(1.0);
  EXPECT_TRUE(saw_tc);
  EXPECT_EQ(bus.stats().truncated, 1u);
}

TEST(Bus, TcpCarriesLargePayloads) {
  MessageBus bus(512);
  std::size_t received_size = 0;
  bus.attach(kClient, [&](const Datagram& d, net::SimTime) {
    received_size = d.payload.size();
  });
  bus.send(kServer, kClient, Proto::kTcp, std::vector<std::uint8_t>(900, 7),
           0.0, 0.1);
  bus.run_until(1.0);
  EXPECT_EQ(received_size, 900u);
  EXPECT_EQ(bus.stats().truncated, 0u);
}

TEST(Bus, FullDnsExchangeWithTcpFallback) {
  // Client asks an ECS-aware authoritative over UDP; on a truncated reply
  // it retries over TCP — the classic stub dance, end to end in wire
  // format over the bus.
  MessageBus bus(48);  // tiny MTU to force truncation of any real answer
  dnssrv::AuthoritativeServer auth;
  dnssrv::ZoneConfig zone;
  zone.name = *dns::DnsName::parse("www.example.com");
  auth.add_zone(zone);

  bus.attach(kServer, [&](const Datagram& d, net::SimTime now) {
    const auto query = dns::decode(d.payload);
    if (!query.ok) return;
    bus.send(kServer, d.src, d.proto,
             dns::encode(auth.handle(query.message)), now, 0.02);
  });

  int answers_received = 0;
  bool retried_tcp = false;
  const auto query = dns::make_query(
      9, *dns::DnsName::parse("www.example.com"), dns::RecordType::kA, true,
      dns::EcsOption::for_query(*net::Prefix::parse("100.64.5.0/24")));
  bus.attach(kClient, [&](const Datagram& d, net::SimTime now) {
    const auto response = dns::decode(d.payload);
    ASSERT_TRUE(response.ok) << response.error;
    if (response.message.header.tc && !retried_tcp) {
      retried_tcp = true;
      bus.send(kClient, kServer, Proto::kTcp, dns::encode(query), now, 0.02);
      return;
    }
    answers_received += static_cast<int>(response.message.answers.size());
  });
  bus.send(kClient, kServer, Proto::kUdp, dns::encode(query), 0.0, 0.02);
  bus.run_until(10.0);
  EXPECT_TRUE(retried_tcp);
  EXPECT_EQ(answers_received, 1);
}

TEST(DnsEndpoint, WireAndStructuredModesByteIdenticalOnBus) {
  // The same probe traffic against two authoritative endpoints — the
  // shipped one answering straight from wire bytes, and a decode →
  // handle → encode endpoint built here as the structured oracle — must
  // put byte-identical reply datagrams on the bus.
  dnssrv::AuthoritativeServer auth;
  dnssrv::ZoneConfig zone;
  zone.name = *dns::DnsName::parse("www.example.com");
  auth.add_zone(zone);
  const auto wire_addr = *net::Ipv4Addr::parse("10.0.0.53");
  const auto structured_addr = *net::Ipv4Addr::parse("10.0.0.54");

  MessageBus bus;
  attach_authoritative(bus, wire_addr, auth);
  std::vector<std::uint8_t> structured_reply;
  attach_payload_endpoint(
      bus, structured_addr,
      [&](const Datagram& d, net::SimTime) -> PayloadReply {
        const auto query = dns::decode(d.payload);
        if (!query.ok) return {};
        structured_reply = dns::encode(auth.handle(query.message, 0));
        return {structured_reply, AuthoritativeEndpointOptions{}.reply_latency};
      });

  std::vector<std::vector<std::uint8_t>> wire_replies, structured_replies;
  bus.attach(kClient, [&](const Datagram& d, net::SimTime) {
    (d.src == wire_addr ? wire_replies : structured_replies)
        .push_back(d.payload);
  });

  for (std::uint16_t id = 0; id < 20; ++id) {
    const auto query = dns::encode(dns::make_query(
        id, *dns::DnsName::parse(id % 3 ? "www.example.com" : "nope.example"),
        dns::RecordType::kA, false,
        dns::EcsOption::for_query(
            net::Prefix(net::Ipv4Addr(0x64400000u + id * 256u), 24))));
    bus.send(kClient, wire_addr, Proto::kTcp, query, id * 0.1, 0.01);
    bus.send(kClient, structured_addr, Proto::kTcp, query, id * 0.1, 0.01);
  }
  bus.run_until(100.0);
  ASSERT_EQ(wire_replies.size(), 20u);
  EXPECT_EQ(wire_replies, structured_replies);
}

TEST(DnsEndpoint, GoogleEndpointAnswersSnoopTraffic) {
  // End-to-end over the bus against the wire-mode Google front end: an
  // RD=1 client fill followed by RD=0 ECS snoops must eventually hit.
  anycast::PopTable pops = anycast::PopTable::google_default();
  anycast::CatchmentModel catchment(&pops, 42);
  dnssrv::AuthoritativeServer auth;
  dnssrv::ZoneConfig zone;
  zone.name = *dns::DnsName::parse("www.example.com");
  zone.min_scope = 20;
  zone.max_scope = 24;
  auth.add_zone(zone);
  googledns::GooglePublicDns gdns(&pops, &catchment, &auth);

  MessageBus bus;
  const auto google = *net::Ipv4Addr::parse("8.8.8.8");
  GoogleEndpointOptions opts;
  opts.locate = [](net::Ipv4Addr) { return net::LatLon{52.5, 13.4}; };
  attach_google_dns(bus, google, gdns, opts);

  const auto domain = *dns::DnsName::parse("www.example.com");
  const auto client = *net::Ipv4Addr::parse("100.64.5.9");
  int snoop_hits = 0;
  bus.attach(kClient, [&](const Datagram& d, net::SimTime) {
    const auto response = dns::decode(d.payload);
    ASSERT_TRUE(response.ok);
    if (response.message.header.rd) return;  // echo of the fill query
    if (!response.message.answers.empty()) ++snoop_hits;
  });
  bus.send(kClient, google, Proto::kUdp,
           dns::encode(dns::make_query(
               1, domain, dns::RecordType::kA, true,
               dns::EcsOption::for_query(net::Prefix::slash24_of(client)))),
           0.0, 0.01);
  const auto scope =
      *auth.scope_for(domain, net::Prefix::slash24_of(client),
                      gdns.config().epoch);
  for (std::uint16_t attempt = 0; attempt < 16; ++attempt) {
    bus.send(kClient, google, Proto::kTcp,
             dns::encode(dns::make_query(
                 static_cast<std::uint16_t>(100 + attempt), domain,
                 dns::RecordType::kA, false,
                 dns::EcsOption::for_query(
                     net::Prefix::slash24_of(client).widen_to(scope)))),
             1.0 + attempt * 0.1, 0.01);
  }
  bus.run_until(10.0);
  EXPECT_GT(snoop_hits, 0);
}

TEST(FaultPlane, DisabledByDefault) {
  FaultPlane plane{FaultConfig{}};
  EXPECT_FALSE(plane.enabled());
  const auto d = plane.decide(kClient, kServer, 7, 1.0);
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(d.extra_latency, 0.0);
}

TEST(FaultPlane, DecisionsAreKeyedAndRepeatable) {
  FaultConfig config;
  config.loss_probability = 0.5;
  config.jitter_max_seconds = 0.1;
  FaultPlane plane{config};
  // Same (src, dst, sequence) ⇒ same verdict, independent of call order.
  const auto first = plane.decide(kClient, kServer, 3, 1.0);
  plane.decide(kServer, kClient, 4, 2.0);
  const auto again = plane.decide(kClient, kServer, 3, 1.0);
  EXPECT_EQ(first.drop, again.drop);
  EXPECT_EQ(first.extra_latency, again.extra_latency);
  // ...and the loss rate is roughly honored over many sequences.
  int dropped = 0;
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    dropped += plane.decide(kClient, kServer, seq, 1.0).drop;
  }
  EXPECT_GT(dropped, 350);
  EXPECT_LT(dropped, 650);
}

TEST(FaultPlane, BlackholeDropsOnlyMatchingEndpoint) {
  FaultConfig config;
  config.blackholes.push_back(kServer);
  FaultPlane plane{config};
  EXPECT_TRUE(plane.decide(kClient, kServer, 0, 0.0).drop);
  EXPECT_EQ(plane.decide(kClient, kServer, 0, 0.0).cause,
            FaultDecision::Cause::kBlackhole);
  EXPECT_FALSE(plane.decide(kClient, kClient, 0, 0.0).drop);
}

TEST(FaultPlane, OutageWindowDropsInsideWindowOnly) {
  FaultConfig config;
  config.outages.push_back({2.0, 4.0, net::Ipv4Addr(0)});
  FaultPlane plane{config};
  EXPECT_FALSE(plane.decide(kClient, kServer, 0, 1.9).drop);
  EXPECT_TRUE(plane.decide(kClient, kServer, 0, 2.0).drop);
  EXPECT_EQ(plane.decide(kClient, kServer, 0, 3.0).cause,
            FaultDecision::Cause::kOutage);
  EXPECT_FALSE(plane.decide(kClient, kServer, 0, 4.0).drop);
}

TEST(Bus, FaultPlaneDropsAndCounts) {
  MessageBus bus;
  FaultConfig config;
  config.loss_probability = 1.0;
  bus.set_faults(config);
  int received = 0;
  bus.attach(kServer, [&](const Datagram&, net::SimTime) { ++received; });
  for (int i = 0; i < 10; ++i) {
    bus.send(kClient, kServer, Proto::kUdp, {1}, 0.0, 0.1);
  }
  bus.run_until(1.0);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().sent, 10u);
  EXPECT_EQ(bus.stats().lost, 10u);
  EXPECT_EQ(bus.stats().delivered, 0u);
}

TEST(Bus, JitterDelaysButDelivers) {
  MessageBus bus;
  FaultConfig config;
  config.jitter_max_seconds = 0.5;
  bus.set_faults(config);
  std::vector<double> arrivals;
  bus.attach(kServer, [&](const Datagram&, net::SimTime now) {
    arrivals.push_back(now);
  });
  for (int i = 0; i < 20; ++i) {
    bus.send(kClient, kServer, Proto::kUdp,
             {static_cast<std::uint8_t>(i)}, 0.0, 0.1);
  }
  bus.run_until(5.0);
  ASSERT_EQ(arrivals.size(), 20u);
  bool any_jittered = false;
  for (double t : arrivals) {
    EXPECT_GE(t, 0.1 - 1e-12);
    EXPECT_LE(t, 0.6 + 1e-12);
    any_jittered |= t > 0.1 + 1e-12;
  }
  EXPECT_TRUE(any_jittered);
}

TEST(Bus, FaultedRunIsRepeatable) {
  FaultConfig config;
  config.loss_probability = 0.3;
  config.jitter_max_seconds = 0.2;
  config.reorder_probability = 0.2;
  config.reorder_window_seconds = 0.3;
  auto run = [&] {
    MessageBus bus;
    bus.set_faults(config);
    std::vector<int> order;
    bus.attach(kServer, [&](const Datagram& d, net::SimTime) {
      order.push_back(d.payload[0]);
    });
    for (int i = 0; i < 50; ++i) {
      bus.send(kClient, kServer, Proto::kUdp,
               {static_cast<std::uint8_t>(i)}, 0.01 * i, 0.1);
    }
    bus.run_until(10.0);
    return order;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_LT(a.size(), 50u);  // p=0.3 over 50 sends: some loss, surely
}

}  // namespace
}  // namespace netclients::netsim
