// libFuzzer harness for the one DITL scan entry. The first input byte
// picks the member format (even: NCD1, odd: NCP1); the rest becomes a
// one-member in-memory corpus, built the way ChromiumCounter::process
// builds one, and is scanned at threads 1. The scan must account for
// every declared record (scanned + skipped == declared), and the same
// bytes fed to CorpusManifest::decode must not crash it; a violation
// traps. Crashers found in CI fold back into tests/corpus/ditl/ as seeds.
//
// Build:  cmake -DNETCLIENTS_FUZZERS=ON (clang only)
// Run:    build/fuzz/fuzz_corpus tests/corpus/ditl/ -max_total_time=60

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "core/chromium/chromium.h"
#include "roots/corpus.h"

using namespace netclients;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  (void)roots::CorpusManifest::decode(bytes);
  if (bytes.empty()) return 0;

  const auto corpus = roots::CorpusView::from_bytes(
      bytes[0] & 1 ? roots::CorpusFormat::kNcp1 : roots::CorpusFormat::kNcd1,
      std::string(bytes.substr(1)));
  if (!corpus) return 0;  // invalid magic/count header: rejected at open
  core::ChromiumOptions options;
  options.threads = 1;
  options.sketch_width = 1 << 12;  // a small sketch keeps iterations fast
  const core::ChromiumResult result =
      core::ChromiumCounter(options).process_corpus(*corpus);
  if (result.records_scanned + result.records_skipped !=
      corpus->declared_records()) {
    std::fprintf(stderr,
                 "[fuzz_corpus] property violated: scanned + skipped != "
                 "declared\n");
    std::abort();
  }
  return 0;
}
