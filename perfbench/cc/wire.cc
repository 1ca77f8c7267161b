// `wire`: NCS1 lookups on clean links, from netsvc::Client over the
// netsim bus to netsvc::Server, against an index small enough for L2.
// Each round is one client session of 22 chunks: 16 small UDP chunks, one
// chunk too large for a UDP query (sent over TCP directly), one whose
// answer outgrows the UDP cap (truncated, re-asked over TCP, and the
// client stays on TCP), then 4 small chunks over TCP.

#include <array>
#include <memory>
#include <optional>

#include "bench.h"
#include "core/serve/service.h"
#include "core/snapshot/snapshot.h"
#include "netsim/bus.h"
#include "netsvc/client.h"
#include "netsvc/protocol.h"
#include "netsvc/server.h"

namespace perfbench {

namespace serve = netclients::core::serve;
namespace snapshot = netclients::core::snapshot;
namespace netsvc = netclients::netsvc;
namespace netsim = netclients::netsim;

namespace {

constexpr std::size_t kPrefixes = 2048;
// 64 /16s of space: the /24 slot table stays at 64 KiB.
constexpr std::uint32_t kBegin = (100u << 24) | (64u << 16);
constexpr std::uint32_t kEnd = (100u << 24) | (128u << 16);
constexpr std::uint32_t kEpochs = 3;
constexpr std::size_t kStream = 1 << 16;
// Set-up takes about 12 ms, so its median needs more samples than the
// other workloads' multi-second set-ups.
constexpr int kSetups = 15;
// Sessions per second of --seconds, fixed so every run makes the same
// sessions: the server keeps state per TCP connection it has seen, so
// peak memory follows the session count. About 8 s at 130 us a session.
constexpr std::uint64_t kRoundsPerSecond = 6000;
constexpr std::array<std::size_t, 22> kChunks = {
    8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,  // UDP
    64,                                              // query > 512 B: TCP
    24,                                              // answer > 512 B: TC
    8, 8, 8, 8};                                     // TCP after TC
constexpr std::size_t kRoundAddresses = 16 * 8 + 64 + 24 + 4 * 8;

const net::Ipv4Addr kServer = net::Ipv4Addr::from_octets(10, 0, 0, 1);

/// A client address per round, so no (address, connection id) pair the
/// server still tracks is ever reused by a fresh client.
net::Ipv4Addr client_address(std::uint64_t round) {
  return net::Ipv4Addr((11u << 24) | static_cast<std::uint32_t>(round % (1u << 20)));
}

struct Codec {
  double encode_mb_per_s = 0;
  double decode_mb_per_s = 0;
};

/// Times the public NCS1 codec on one round's chunks for about `seconds`
/// each: query + response encode, then query + response parse.
Codec time_codec(std::span<const net::Ipv4Addr> addrs,
                 std::span<const serve::LookupResult> results,
                 double seconds, Tracer& tracer, Problems& problems) {
  netclients::dns::WireArena arena;
  std::vector<std::vector<std::uint8_t>> queries, responses;
  std::vector<netsvc::QueryView> views(kChunks.size());
  std::vector<std::size_t> starts;
  std::size_t at = 0;
  for (std::size_t i = 0; i < kChunks.size(); ++i) {
    starts.push_back(at);
    const auto q = netsvc::encode_query(7, addrs.subspan(at, kChunks[i]),
                                        arena);
    queries.emplace_back(q.begin(), q.end());
    at += kChunks[i];
  }
  for (std::size_t i = 0; i < kChunks.size(); ++i) {
    if (netsvc::parse_query(queries[i], &views[i]) !=
        netsvc::ParseStatus::kOk) {
      problems.push_back("codec: own query does not parse");
      return {};
    }
    const auto a = netsvc::encode_response(
        views[i], results.subspan(starts[i], kChunks[i]), arena);
    responses.emplace_back(a.begin(), a.end());
  }
  Codec codec;
  double bytes = 0;
  std::uint64_t messages = 0;  // queries + responses
  double t0 = now_s();
  double dt = 0;
  std::optional<Tracer::Scope> span;
  span.emplace(tracer, "netsvc.codec_encode");
  do {
    for (std::size_t i = 0; i < kChunks.size(); ++i) {
      bytes += static_cast<double>(
          netsvc::encode_query(7, addrs.subspan(starts[i], kChunks[i]), arena)
              .size());
      bytes += static_cast<double>(
          netsvc::encode_response(views[i],
                                  results.subspan(starts[i], kChunks[i]),
                                  arena)
              .size());
    }
    messages += 2 * kChunks.size();
    dt = now_s() - t0;
  } while (dt < seconds);
  span->items(messages);
  span->bytes(static_cast<std::uint64_t>(bytes));
  span.reset();
  codec.encode_mb_per_s = bytes / dt / 1e6;
  netsvc::QueryView query;
  netsvc::ResponseView response;
  bytes = 0;
  messages = 0;
  t0 = now_s();
  span.emplace(tracer, "netsvc.codec_decode");
  do {
    for (std::size_t i = 0; i < kChunks.size(); ++i) {
      if (netsvc::parse_query(queries[i], &query) !=
              netsvc::ParseStatus::kOk ||
          !netsvc::parse_response(responses[i], &response) ||
          response.results.size() != kChunks[i]) {
        problems.push_back("codec: own message does not parse");
        return codec;
      }
      bytes += static_cast<double>(queries[i].size() + responses[i].size());
    }
    messages += 2 * kChunks.size();
    dt = now_s() - t0;
  } while (dt < seconds);
  span->items(messages);
  span->bytes(static_cast<std::uint64_t>(bytes));
  codec.decode_mb_per_s = bytes / dt / 1e6;
  return codec;
}

}  // namespace

Result run_wire(const Options& o, Tracer& tracer) {
  Result r;
  Universe u;
  std::unique_ptr<serve::Service> service;
  std::vector<net::Ipv4Addr> stream;
  const double setup_s = timed_setups([&] {
    Tracer::Scope span(tracer, "bench.generate_epochs");
    u = make_universe(derive(o.seed, 0x57495245u), kPrefixes, LengthMix{}, kBegin,
                      kEnd);  // "WIRE"
    std::vector<snapshot::EpochRecord> chain;
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      chain.push_back(make_epoch_record(u, e));
    }
    const auto decoded = snapshot::decode(snapshot::encode(chain));
    serve::ServiceOptions options;
    options.max_epochs = kEpochs;
    service = std::make_unique<serve::Service>(options);
    if (decoded) service->publish(std::span(decoded->epochs));
    stream = make_queries(u, query_mix(), kStream, 0);
    span.items(u.size());
  }, kSetups);
  r.setup_rss_mb = peak_rss_mb();
  const serve::SnapshotHandle pinned = service->acquire();
  if (pinned->latest_epoch() != kEpochs - 1 ||
      pinned->epoch_count() != kEpochs) {
    r.problems.push_back("setup: service does not hold the epoch chain");
  }

  netsim::MessageBus bus;
  netsvc::ServerOptions server_options;
  server_options.lookup_threads = 1;
  netsvc::Server server(bus, *service, kServer, server_options);
  netsvc::ClientOptions client_options;
  client_options.batch_per_message = netsvc::kMaxQuestionsPerMessage;

  std::vector<serve::LookupResult> out(kRoundAddresses);
  double session_s = 0;  // wall time inside sessions, checks excluded
  std::uint64_t rounds = 0;
  std::uint64_t escalations = 0;
  std::uint64_t bad = 0;
  std::uint64_t off_design = 0;
  double udp_s = 0, tcp_s = 0;
  std::uint64_t udp_addresses = 0, tcp_addresses = 0;
  std::size_t offset = 0;
  const auto total_rounds =
      static_cast<std::uint64_t>(o.seconds * kRoundsPerSecond);
  do {
    const std::span<const net::Ipv4Addr> addrs(stream.data() + offset,
                                               kRoundAddresses);
    offset = (offset + kRoundAddresses) % (kStream - kRoundAddresses);
    const double t0 = now_s();
    {
      Tracer::Scope span(tracer, "netsvc.round");
      netsvc::Client client(bus, client_address(rounds), kServer,
                            client_options);
      std::size_t at = 0;
      for (std::size_t size : kChunks) {
        const std::uint64_t tcp_before = client.stats().tcp_queries;
        const double c0 = tracer.enabled() ? now_s() : 0;
        client.lookup_many(addrs.subspan(at, size), out.data() + at);
        if (tracer.enabled()) {
          const double dt = now_s() - c0;
          if (client.stats().tcp_queries > tcp_before) {
            tcp_s += dt;
            tcp_addresses += size;
          } else {
            udp_s += dt;
            udp_addresses += size;
          }
        }
        at += size;
        ++r.attempted;
      }
      const netsvc::ClientStats& st = client.stats();
      r.failed += st.failed_chunks;
      escalations += st.escalations;
      // The session's design: one TC=1 escalation, then 6 TCP queries
      // (the oversize chunk, the re-ask and the 4 chunks after it).
      if (st.truncated_seen != 1 || st.escalations != 1 ||
          st.tcp_queries != 6 || st.udp_queries != 17) {
        ++off_design;
      }
      span.items(kRoundAddresses);
    }
    session_s += now_s() - t0;
    ++rounds;
    bad += count_mismatches(u, addrs, out.data(), kEpochs - 1, kEpochs);
  } while (rounds < total_rounds);
  if (bad) {
    r.problems.push_back(std::to_string(bad) +
                         " answers differ from the model of the epoch chain");
  }
  if (r.failed) {
    r.problems.push_back(std::to_string(r.failed) +
                         " chunks failed on clean links");
  }
  if (off_design) {
    r.problems.push_back(std::to_string(off_design) +
                         " sessions did not take the designed UDP/TC/TCP "
                         "path");
  }

  // Means over the whole window: one session takes about 130 us, too
  // short to time on its own on a shared machine.
  r.e2e["setup_s"] = setup_s;
  r.e2e["op_s"] = session_s / static_cast<double>(rounds);
  r.e2e["items_per_s"] =
      static_cast<double>(rounds * kRoundAddresses) / session_s;

  if (tracer.enabled()) {
    const netsvc::ServerStats& s = server.stats();
    const double requests =
        static_cast<double>(s.udp_requests + s.tcp_requests);
    const double n = static_cast<double>(rounds);
    r.layers["netsvc.udp_lookups_per_s"] =
        udp_s > 0 ? static_cast<double>(udp_addresses) / udp_s : 0;
    r.layers["netsvc.tcp_lookups_per_s"] =
        tcp_s > 0 ? static_cast<double>(tcp_addresses) / tcp_s : 0;
    r.layers["netsvc.requests"] = requests / n;
    r.layers["netsvc.answered_per_request"] =
        static_cast<double>(rounds * kRoundAddresses) / requests;
    r.layers["netsvc.escalations"] = static_cast<double>(escalations) / n;
    r.layers["netsvc.window_stalls"] = static_cast<double>(s.window_stalls) / n;
    std::vector<serve::LookupResult> answers(kRoundAddresses);
    const std::span<const net::Ipv4Addr> addrs(stream.data(),
                                               kRoundAddresses);
    pinned->lookup_many(addrs, answers.data(), 1);
    const Codec codec = time_codec(addrs, answers, 0.5, tracer, r.problems);
    r.layers["netsvc.codec_encode_mb_per_s"] = codec.encode_mb_per_s;
    r.layers["netsvc.codec_decode_mb_per_s"] = codec.decode_mb_per_s;
    r.layers["serve.acquire_ns"] = acquire_ns(*service, tracer);
    std::printf("wire: %llu rounds of %zu chunks, %.0f requests/round\n",
                static_cast<unsigned long long>(rounds), kChunks.size(),
                requests / n);
  }
  return r;
}

}  // namespace perfbench
