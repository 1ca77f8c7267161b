// Regenerates the checked-in seed corpus for fuzz_snapshot
// (tests/corpus/snap/). Each seed is a netclients.snap.v1 image built
// from two small hand-made epochs (a full epoch and a delta against it):
// the clean image, a magic-only file, and corpses that exercise every
// skip-and-count path of the tolerant reader — a cut section, a CRC
// mismatch, an orphan keyed section, an unknown section kind, a delta
// epoch with no predecessor, an over-declared payload size, and a wrong
// magic. Deterministic: same binary, same bytes.
//
// Run:  build/tools/snap_corpus tests/corpus/snap

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/snapshot/snapshot.h"
#include "net/crc32.h"

using namespace netclients;
namespace snapshot = core::snapshot;

namespace {

constexpr std::size_t kFrameBytes = 20;  // kind, epoch_id, size, crc

bool dump(const std::filesystem::path& dir, const std::string& name,
          const std::string& image) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  if (!out) std::fprintf(stderr, "cannot write %s\n", (dir / name).c_str());
  return static_cast<bool>(out);
}

snapshot::PrefixEntry entry(const char* prefix, double volume,
                            std::uint32_t asn, std::uint16_t country,
                            std::uint32_t mask) {
  snapshot::PrefixEntry e;
  e.prefix = *net::Prefix::parse(prefix);
  e.volume = volume;
  e.asn = asn;
  e.country = country;
  e.domain_mask = mask;
  return e;
}

/// Byte offset of every section frame, in file order.
std::vector<std::size_t> frame_offsets(const std::string& image) {
  std::vector<std::size_t> offsets;
  std::size_t pos = sizeof(snapshot::kMagic);
  const auto sections = snapshot::section_sizes(image);
  for (const auto& section : *sections) {
    offsets.push_back(pos);
    pos += kFrameBytes + section.payload_bytes;
  }
  return offsets;
}

void put_u32(std::string& image, std::size_t at, std::uint32_t v) {
  std::memcpy(image.data() + at, &v, sizeof(v));
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "tests/corpus/snap";
  std::filesystem::create_directories(dir);

  std::vector<snapshot::EpochRecord> epochs(2);
  epochs[0].epoch_id = 1;
  epochs[0].world_seed = 42;
  epochs[0].domain_count = 3;
  epochs[0].prefixes = {entry("10.0.0.0/16", 4.0, 64500, 1, 0x1),
                        entry("10.1.2.0/24", 2.5, 64501, 1, 0x3),
                        entry("192.0.2.128/25", 1.0, 64502, 2, 0x4)};
  epochs[0].as_aggregates = {{64500, 4.0, 1}, {64501, 2.5, 1}, {64502, 1.0, 1}};
  epochs[0].countries = {{1, 6.5, 2}, {2, 1.0, 1}};
  epochs[0].totals = {1000, 120, 3, 9};
  epochs[1] = epochs[0];
  epochs[1].epoch_id = 2;
  epochs[1].prefixes[1].volume = 3.0;
  epochs[1].prefixes.pop_back();
  epochs[1].prefixes.push_back(entry("198.51.100.0/24", 0.5, 64503, 3, 0x2));
  epochs[1].as_aggregates = {{64500, 4.0, 1}, {64501, 3.0, 1}, {64503, 0.5, 1}};
  epochs[1].countries = {{1, 7.0, 2}, {3, 0.5, 1}};

  const std::string clean = snapshot::encode(epochs);
  const std::vector<std::size_t> frames = frame_offsets(clean);
  if (frames.size() != 8) {
    std::fprintf(stderr, "unexpected section count %zu\n", frames.size());
    return 1;
  }
  const std::string magic = clean.substr(0, sizeof(snapshot::kMagic));

  // Epoch 1's prefixes payload gets one flipped byte: its CRC fails.
  std::string crc_flip = clean;
  crc_flip[frames[1] + kFrameBytes + 2] ^= 0x40;
  // Epoch 2's prefixes section claims epoch 7: an orphan.
  std::string orphan = clean;
  put_u32(orphan, frames[5] + 4, 7);
  // Epoch 1's countries section becomes kind 99 (its CRC still holds).
  std::string unknown_kind = clean;
  put_u32(unknown_kind, frames[3], 99);
  // Only epoch 2's sections: a delta epoch without its base.
  const std::string delta_first = magic + clean.substr(frames[4]);
  // The last section declares far more payload than the file holds.
  std::string overdeclared = clean;
  const std::uint64_t huge = std::uint64_t{1} << 32;
  std::memcpy(overdeclared.data() + frames[7] + 8, &huge, sizeof(huge));
  // An extra well-framed section of an unknown kind after the epochs.
  std::string trailing_unknown = clean;
  const std::string payload = "future";
  std::string frame(kFrameBytes, '\0');
  put_u32(frame, 0, 99);
  put_u32(frame, 4, 3);
  const std::uint64_t size = payload.size();
  std::memcpy(frame.data() + 8, &size, sizeof(size));
  put_u32(frame, 16, net::crc32(payload));
  trailing_unknown += frame + payload;
  std::string bad_magic = clean;
  bad_magic[7] = '2';

  bool ok = dump(dir, "clean", clean);
  ok &= dump(dir, "magic_only", magic);
  ok &= dump(dir, "cut_section", clean.substr(0, clean.size() - 7));
  ok &= dump(dir, "cut_frame", clean.substr(0, frames[2] + 9));
  ok &= dump(dir, "crc_flip", crc_flip);
  ok &= dump(dir, "orphan_section", orphan);
  ok &= dump(dir, "unknown_kind", unknown_kind);
  ok &= dump(dir, "trailing_unknown", trailing_unknown);
  ok &= dump(dir, "delta_first", delta_first);
  ok &= dump(dir, "overdeclared", overdeclared);
  ok &= dump(dir, "bad_magic", bad_magic);

  if (ok) std::printf("snapshot corpus written to %s\n", dir.c_str());
  return ok ? 0 : 1;
}
