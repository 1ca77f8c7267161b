// `crawl`: repeated corpus scans of a DITL capture of several million
// records, written during set-up as an NCCORPUS corpus whose members
// alternate NCD1 and NCP1. No probing runs.

#include <cstdio>
#include <optional>

#include "bench.h"
#include "core/chromium/chromium.h"

namespace perfbench {

namespace core = netclients::core;
namespace sim = netclients::sim;

namespace {

constexpr double kScale = 256;
constexpr double kSample = 1.0 / 24;
constexpr std::uint64_t kRecordsPerMember = 500'000;

}  // namespace

Result run_crawl(const Options& o, Tracer& tracer) {
  Result r;
  const int n = o.threads;
  Capture capture;
  const double setup_s = timed_setups([&] {
    capture = {};  // the last set-up's capture is not held during this one
    sim::World world;
    {
      Tracer::Scope span(tracer, "sim.world", n);
      world = sim::World::generate(world_config(kScale));
      span.items(world.blocks().size());
    }
    capture = write_capture(world, kSample, derive(o.seed, 0x4449544Cu),
                            kRecordsPerMember, o.work_dir, "crawl", tracer);
  });
  r.setup_rss_mb = peak_rss_mb();
  if (capture.records != capture.exact.records()) {
    r.problems.push_back("capture: manifest records differ from records fed");
  }
  {
    Tracer::Scope span(tracer, "check.exact_counts");
    capture.exact.finish(kSample);
  }
  if (tracer.enabled()) {
    std::printf("capture: %llu records, %llu matching, in %zu members "
                "(NCD1 and NCP1 alternating), %.1f MB\n",
                static_cast<unsigned long long>(capture.records),
                static_cast<unsigned long long>(capture.exact.matches()),
                capture.members, static_cast<double>(capture.bytes) / 1e6);
  }

  std::optional<core::ChromiumResult> first;
  std::vector<double> walls;
  double records = 0;
  const double window_start = now_s();
  do {
    const double t0 = now_s();
    std::optional<core::ChromiumResult> result = scan_corpus(
        capture.manifest, scan_options(kSample, n), tracer, "chromium.scan");
    walls.push_back(now_s() - t0);
    ++r.attempted;
    if (!result) {
      ++r.failed;
      r.problems.push_back("scan: corpus manifest unreadable");
      break;
    }
    records += static_cast<double>(result->records_scanned);
    // The first scan is checked against the exact counter; the rest must
    // repeat it (the scan is deterministic at any thread count).
    if (!first) {
      r.expect(capture.exact.check(*result), "scan");
      first = std::move(result);
    } else if (!same_result(*first, *result)) {
      r.problems.push_back("scan: repeated scan differs from the first");
    }
  } while (now_s() - window_start < o.seconds);

  double total = 0;
  for (double w : walls) total += w;
  r.e2e["setup_s"] = setup_s;
  r.e2e["op_s"] = median(walls);
  r.e2e["items_per_s"] = records / total;

  if (tracer.enabled() && first) {
    const auto one = scan_corpus(capture.manifest, scan_options(kSample, 1),
                                 tracer, "chromium.scan.serial");
    if (one && !same_result(*first, *one)) {
      r.problems.push_back("scan: 1-thread scan differs");
    }
  }
  return r;
}

}  // namespace perfbench
