// Regenerates the checked-in seed corpus for fuzz_corpus
// (tests/corpus/ditl/). Each seed is a format byte (0: NCD1, 1: NCP1)
// followed by a member image: clean NCD1 and NCP1 traces mixing signature
// probes, a repeated name and TLD queries, an empty trace, and corpses
// that exercise the skip-and-count paths (a cut record, an over-declared
// count, a corrupt packet, a format/magic mismatch). Deterministic: same
// binary, same bytes.
//
// Run:  build/tools/ditl_corpus tests/corpus/ditl

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "roots/packet_trace.h"
#include "roots/trace.h"

using namespace netclients;

namespace {

bool dump(const std::filesystem::path& dir, const std::string& name,
          char format, const std::string& image) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.put(format);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  if (!out) std::fprintf(stderr, "cannot write %s\n", (dir / name).c_str());
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "tests/corpus/ditl";
  std::filesystem::create_directories(dir);

  std::vector<roots::TraceRecord> records(8);
  const char* names[] = {"qpwoeiruty", "www.example.com", "columbia",
                         "columbia",   "mznxbcvlak",      "com",
                         "columbia",   "alskdjfhgqpw"};
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    records[i].source = net::Ipv4Addr(0x0A000001u + i % 3);
    records[i].qname = *dns::DnsName::parse(names[i]);
    records[i].timestamp = 3600.0 * i;
    records[i].root_letter = "adhjkm"[i % 6];
  }
  const std::string ncd1 = roots::TraceFile::encode(records);
  // NCP1 has no in-memory encoder: write the trace, read the bytes back.
  const std::filesystem::path scratch = dir / ".ncp1.tmp";
  if (!roots::write_packet_trace(scratch.string(), records)) return 1;
  std::string ncp1;
  {
    std::ifstream in(scratch, std::ios::binary);
    ncp1.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::filesystem::remove(scratch);

  std::string overdeclared = ncd1;
  const std::uint64_t declared = records.size() + 1000;
  std::memcpy(overdeclared.data() + 4, &declared, sizeof(declared));
  // The first frame's DNS header (12 bytes after the 12-byte file header
  // and the 15-byte capture header) becomes garbage: a scanned non-match.
  std::string corrupt = ncp1;
  std::memset(corrupt.data() + 12 + 15, 0xFF, 12);

  bool ok = dump(dir, "ncd1_clean", 0, ncd1);
  ok &= dump(dir, "ncp1_clean", 1, ncp1);
  ok &= dump(dir, "ncd1_empty", 0, roots::TraceFile::encode({}));
  ok &= dump(dir, "ncd1_cut_record", 0, ncd1.substr(0, ncd1.size() - 5));
  ok &= dump(dir, "ncp1_cut_frame", 1, ncp1.substr(0, ncp1.size() - 5));
  ok &= dump(dir, "ncd1_overdeclared", 0, overdeclared);
  ok &= dump(dir, "ncp1_corrupt_packet", 1, corrupt);
  ok &= dump(dir, "ncp1_bad_magic", 1, ncd1);  // rejected at open

  if (ok) std::printf("ditl corpus written to %s\n", dir.c_str());
  return ok ? 0 : 1;
}
