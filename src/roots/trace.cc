#include "roots/trace.h"

#include <fstream>

namespace netclients::roots {
namespace {

constexpr char kMagic[4] = {'N', 'C', 'D', '1'};
/// Encoded bytes `write` buffers before handing them to the stream.
constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

template <typename T>
void put(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void append_header(std::string* out, std::uint64_t count) {
  out->append(kMagic, sizeof(kMagic));
  put(out, count);
}

void append_record(std::string* out, const TraceRecord& rec) {
  put(out, rec.source.value());
  put(out, rec.root_letter);
  put(out, static_cast<std::uint16_t>(rec.qtype));
  put(out, rec.timestamp);
  put(out, static_cast<std::uint8_t>(rec.qname.labels().size()));
  for (const auto& label : rec.qname.labels()) {
    put(out, static_cast<std::uint8_t>(label.size()));
    out->append(label);
  }
}

}  // namespace

std::string TraceFile::encode(const std::vector<TraceRecord>& records) {
  std::string image;
  append_header(&image, records.size());
  for (const auto& rec : records) append_record(&image, rec);
  return image;
}

bool TraceFile::write(const std::string& path,
                      const std::vector<TraceRecord>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::string buffer;
  append_header(&buffer, records.size());
  for (const auto& rec : records) {
    append_record(&buffer, rec);
    if (buffer.size() >= kFlushBytes) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  return static_cast<bool>(out);
}

}  // namespace netclients::roots
