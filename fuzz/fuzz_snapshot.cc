// libFuzzer harness for the netclients.snap.v1 reader. The input is a
// snapshot image. The tolerant decode() and the section_sizes() frame
// walk must never crash, and the strict validate() must reject every
// image from which decode() skipped anything (a bad magic, a skipped
// section or epoch, a CRC failure, or truncation); a violation traps.
// Crashers found in CI fold back into tests/corpus/snap/ as seeds.
//
// Build:  cmake -DNETCLIENTS_FUZZERS=ON (clang only)
// Run:    build/fuzz/fuzz_snapshot tests/corpus/snap/ -max_total_time=60

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "core/snapshot/snapshot.h"

using namespace netclients;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  namespace snapshot = core::snapshot;
  (void)snapshot::section_sizes(bytes);
  const auto file = snapshot::decode(bytes);
  const bool skipped = !file || file->stats.sections_skipped != 0 ||
                       file->stats.epochs_skipped != 0 ||
                       file->stats.crc_failures != 0 || file->stats.truncated;
  if (skipped && snapshot::validate(bytes).empty()) {
    std::fprintf(stderr,
                 "[fuzz_snapshot] property violated: validate() accepts an "
                 "image the tolerant reader skipped from\n");
    std::abort();
  }
  return 0;
}
