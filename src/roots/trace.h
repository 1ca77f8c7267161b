#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/types.h"
#include "net/ipv4.h"
#include "net/sim_time.h"

namespace netclients::roots {

/// One captured root-server query, the unit of a DITL trace. Source is the
/// address of whoever sent the query to the root — almost always a
/// recursive resolver, which is why the DNS-logs technique attributes
/// activity to resolvers rather than clients (§3.2.2).
struct TraceRecord {
  net::Ipv4Addr source;
  dns::DnsName qname;
  dns::RecordType qtype = dns::RecordType::kA;
  net::SimTime timestamp = 0;
  char root_letter = 'a';

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// The library's compact binary DITL format. The format is a faithful
/// stand-in for DNS-OARC pcap-derived traces: per-record source, qname,
/// qtype, timestamp, capturing root. Read it back zero-copy through
/// `TraceView` (trace_view.h).
///
/// Layout: magic "NCD1", u64 record count, then per record:
///   u32 source, u8 letter, u16 qtype, f64 timestamp, u8 label count,
///   (u8 len, bytes) per label.
class TraceFile {
 public:
  static bool write(const std::string& path,
                    const std::vector<TraceRecord>& records);
  /// The NCD1 image of `records`: exactly the bytes `write` puts in a file.
  static std::string encode(const std::vector<TraceRecord>& records);

  /// Outcome of one tolerant framing walk (TraceView/PacketTraceView
  /// `validate`): the format has no resync marker, so the first structural
  /// error ends the valid prefix and the declared remainder is skipped.
  struct ReadStats {
    std::uint64_t records_read = 0;
    std::uint64_t records_skipped = 0;  // declared but unparseable
    bool truncated = false;             // stream ended mid-record
  };
};

}  // namespace netclients::roots
