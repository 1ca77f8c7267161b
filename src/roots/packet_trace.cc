#include "roots/packet_trace.h"

#include <cstring>
#include <fstream>
#include <limits>

#include "dns/message.h"
#include "dns/packet.h"

namespace netclients::roots {
namespace {

constexpr char kMagic[4] = {'N', 'C', 'P', '1'};

template <typename T>
void put(std::ofstream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

std::optional<PacketTraceView> PacketTraceView::open(const std::string& path,
                                                     Backing backing) {
  auto bytes = FileBytes::open(path, backing, kHeaderBytes);
  if (!bytes) return std::nullopt;
  return open(std::move(*bytes));
}

std::optional<PacketTraceView> PacketTraceView::open(FileBytes bytes) {
  PacketTraceView view;
  view.bytes_ = std::move(bytes);
  if (view.bytes_.size() < kHeaderBytes ||
      std::memcmp(view.bytes_.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::memcpy(&view.declared_, view.bytes_.data() + sizeof(kMagic),
              sizeof(view.declared_));
  return view;
}

TraceFile::ReadStats PacketTraceView::validate() const {
  TraceFile::ReadStats stats;
  Cursor cur = cursor();
  PacketRecordRef ref;
  while (cur.next(&ref)) {
  }
  stats.records_read = cur.index();
  if (cur.index() < declared_) {
    stats.records_skipped = declared_ - cur.index();
    stats.truncated = true;
  }
  return stats;
}

bool write_packet_trace(const std::string& path,
                        const std::vector<TraceRecord>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(kMagic, sizeof(kMagic));
  put(out, static_cast<std::uint64_t>(records.size()));
  dns::WireArena arena;  // recycled across records: one allocation plateau
  std::uint64_t index = 0;
  for (const auto& rec : records) {
    const dns::DnsMessage query = dns::make_query(
        static_cast<std::uint16_t>(index), rec.qname, rec.qtype,
        /*recursion_desired=*/false);
    const auto wire = dns::encode_into(query, arena);
    if (wire.size() > std::numeric_limits<std::uint16_t>::max()) return false;
    put(out, rec.source.value());
    put(out, static_cast<std::uint8_t>(rec.root_letter));
    put(out, rec.timestamp);
    put(out, static_cast<std::uint16_t>(wire.size()));
    out.write(reinterpret_cast<const char*>(wire.data()),
              static_cast<std::streamsize>(wire.size()));
    ++index;
  }
  return static_cast<bool>(out);
}

}  // namespace netclients::roots
