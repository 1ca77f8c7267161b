// Trace-ingestion benchmark: generate a sampled DITL capture, write it as
// NCCORPUS corpora, and time the one scan path (ChromiumCounter::
// process_corpus, the work-stealing scan over zero-copy members) over a
// one-member corpus and — at the internet presets — over the same
// records sharded into N members; report records/sec for each.
//
// The bench *checks* the parity contract before it times anything: every
// corpus scan must be byte-identical to the serial reference scan
// (tests/scan_reference.h) at threads 1/2/8; any mismatch is a hard
// failure (exit 1).
//
// Each of `--reps` reps scans each corpus back to back until it covers at
// least 0.5 s of wall time, the two corpora alternating within the rep;
// every figure is the median over reps, and the N-over-one speedup is
// the median of the per-rep ratios.
//
// Output: a throughput table on stdout, rows in
// bench_out/scan_throughput.csv (CI uploads + gates it), and gauges
// `chromium.scan.corpus_records_per_sec` / `chromium.scan.corpus_speedup`
// (N members over one) / `chromium.scan.steal_ratio` via --metrics-out.
// `--require-speedup=X` (CI passes 1.0) exits 1, at internet scale, when
// the N-member scan is less than X times the one-member scan at equal
// threads.
//
// Run:  build/bench/bench_scan [--scale=paper|internet-lite|internet]
//                              [--reps=3] [--require-speedup=0]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/exec/steal.h"
#include "roots/corpus.h"
#include "scan_reference.h"

using namespace netclients;

namespace {

using bench::flag_value;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Writes `records` as a corpus of `files` members and opens it; says why
/// and returns nullopt when either step fails.
std::optional<roots::CorpusView> write_and_open(
    const std::string& manifest_path,
    const std::vector<roots::TraceRecord>& records, std::size_t files) {
  obs::StageSpan span("scan.bench.corpus_write");
  if (!roots::write_corpus(manifest_path, records, files)) {
    std::fprintf(stderr, "[scan] cannot write corpus %s\n",
                 manifest_path.c_str());
    return std::nullopt;
  }
  auto corpus = roots::CorpusView::open(manifest_path);
  if (!corpus || corpus->stats().members_skipped != 0) {
    std::fprintf(stderr, "[scan] corpus open failed for %s\n",
                 manifest_path.c_str());
    return std::nullopt;
  }
  return corpus;
}

/// Wall time of one open + scan of the corpus at `manifest_path`, or -1
/// when it cannot be reopened.
double timed_scan(const core::ChromiumCounter& counter,
                  const std::string& manifest_path,
                  core::exec::StealTelemetry* steal, std::uint64_t* sink) {
  const auto start = std::chrono::steady_clock::now();
  const auto corpus = roots::CorpusView::open(manifest_path);
  if (!corpus) return -1;
  *sink += counter.process_corpus(*corpus, steal).signature_matches;
  return seconds_since(start);
}

/// Wall time each side of a rep covers: one ~0.1 s scan is too short to
/// tell a parallel win from run-to-run noise.
constexpr double kMinWindowSeconds = 0.5;

/// Scans the corpus at `manifest_path` back to back until the scans
/// cover at least kMinWindowSeconds; returns the mean seconds per scan
/// (-1 when the corpus cannot be reopened).
double timed_window(const core::ChromiumCounter& counter,
                    const std::string& manifest_path,
                    core::exec::StealTelemetry* steal, std::uint64_t* sink) {
  double total = 0;
  int scans = 0;
  do {
    const double seconds = timed_scan(counter, manifest_path, steal, sink);
    if (seconds < 0) return -1;
    total += seconds;
    ++scans;
  } while (total < kMinWindowSeconds);
  return total / scans;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  const bench::ScaleSpec spec = bench::parse_scale(argc, argv);
  const int reps =
      std::max(1, static_cast<int>(flag_value(argc, argv, "--reps", 3)));
  const double require_speedup =
      flag_value(argc, argv, "--require-speedup", 0);

  // ---- 1. Capture a sampled DITL to disk -------------------------------
  const core::Scenario scenario =
      core::ScenarioBuilder()
          .scale_denominator(bench::scale_denominator())
          .build();
  const sim::World& world = scenario.world();
  const roots::RootSystem roots =
      roots::RootSystem::ditl_2020(world.config().seed);
  sim::DitlOptions ditl;
  ditl.sample_rate = 1.0 / bench::ditl_sample_denominator();

  std::vector<roots::TraceRecord> records;
  {
    obs::StageSpan span("scan.bench.capture");
    sim::generate_ditl(world, roots, ditl,
                       [&](const roots::TraceRecord& rec) {
                         records.push_back(rec);
                       });
  }
  // The same records as one member and — at the internet presets —
  // sharded across N members (at the paper preset N is 1 and the two
  // corpora are one).
  const std::string manifest_path = bench::out_path("scan.manifest");
  const auto corpus =
      write_and_open(manifest_path, records, spec.corpus_files);
  if (!corpus) return 1;
  const std::string single_path = bench::out_path("scan_one.manifest");
  std::vector<const roots::CorpusView*> corpora = {&*corpus};
  std::optional<roots::CorpusView> single;
  if (spec.corpus_files > 1) {
    single = write_and_open(single_path, records, 1);
    if (!single) return 1;
    corpora.push_back(&*single);
  }
  std::fprintf(stderr, "[scan] %zu records, %llu payload bytes, %zu corpus "
               "member(s)\n",
               records.size(),
               static_cast<unsigned long long>(corpus->payload_bytes()),
               corpus->members().size());

  core::ChromiumOptions options;
  options.sample_rate = ditl.sample_rate;

  // ---- 2. Parity checks (before timing) --------------------------------
  // The acceptance contract: the work-stealing corpus scan must be
  // byte-identical to the serial reference at every thread count and
  // member split, regardless of steal interleaving.
  const core::ChromiumResult reference = reference_scan(records, options);
  for (const int threads : {1, 2, 8}) {
    core::ChromiumOptions check = options;
    check.threads = threads;
    const core::ChromiumCounter counter(check);
    for (const roots::CorpusView* scanned : corpora) {
      if (!same_scan(counter.process_corpus(*scanned), reference)) {
        std::fprintf(stderr,
                     "[scan] FAIL: %zu-member corpus scan differs from the "
                     "serial reference at threads=%d\n",
                     scanned->members().size(), threads);
        return 1;
      }
    }
  }

  // ---- 3. Throughput: manifest -> ChromiumResult -----------------------
  const core::ChromiumCounter counter(options);
  const auto n = static_cast<double>(records.size());
  core::exec::StealTelemetry steal;
  std::uint64_t sink = 0;  // keeps the timed results observable
  // Each rep times a window of at least kMinWindowSeconds per side; the
  // two corpora alternate within a rep so both see the same machine
  // state, and the speedup is the median of the per-rep ratios.
  std::vector<double> single_reps, corpus_reps, speedups;
  for (int rep = 0; rep < reps; ++rep) {
    double single_seconds = 0;
    if (single) {
      single_seconds = timed_window(counter, single_path, nullptr, &sink);
      if (single_seconds <= 0) break;
      single_reps.push_back(single_seconds);
    }
    const double seconds = timed_window(counter, manifest_path, &steal, &sink);
    if (seconds <= 0) break;
    corpus_reps.push_back(seconds);
    if (single) speedups.push_back(single_seconds / seconds);
  }
  if (corpus_reps.size() != static_cast<std::size_t>(reps)) {
    std::fprintf(stderr, "[scan] cannot reopen the corpus\n");
    return 1;
  }
  const double corpus_seconds = median(corpus_reps);
  const double single_seconds = single ? median(single_reps) : corpus_seconds;
  const double corpus_rps = n / corpus_seconds;
  const double single_rps = n / single_seconds;
  const double corpus_speedup = single ? median(speedups) : 1.0;
  const double steal_ratio =
      steal.tasks > 0
          ? static_cast<double>(steal.stolen_tasks) / steal.tasks
          : 0;

  std::printf("trace scan throughput (%zu records, %zu corpus member(s), "
              "median of %d reps of >= %.1f s each)\n",
              records.size(), corpus->members().size(), reps,
              kMinWindowSeconds);
  std::printf("  %-12s %10s %16s\n", "members", "seconds", "records/sec");
  if (single) {
    std::printf("  %-12d %10.3f %16.0f\n", 1, single_seconds, single_rps);
  }
  std::printf("  %-12zu %10.3f %16.0f\n", corpus->members().size(),
              corpus_seconds, corpus_rps);
  std::printf("  %zu member(s) / 1 member: %.2fx, median of per-rep "
              "ratios  (checksum %llu)\n",
              corpus->members().size(), corpus_speedup,
              static_cast<unsigned long long>(sink));
  std::printf("  steal scheduler: %zu tasks over %zu workers, %zu "
              "steal(s) moved %zu task(s) (ratio %.3f)\n",
              steal.tasks, steal.workers, steal.steals, steal.stolen_tasks,
              steal_ratio);

  obs::Registry::global()
      .gauge("chromium.scan.corpus_records_per_sec")
      .set(corpus_rps);
  obs::Registry::global()
      .gauge("chromium.scan.corpus_speedup")
      .set(corpus_speedup);
  obs::Registry::global().gauge("chromium.scan.steal_ratio").set(steal_ratio);

  if (std::FILE* csv =
          std::fopen(bench::out_path("scan_throughput.csv").c_str(), "w")) {
    std::fprintf(csv,
                 "path,scale,files,records,payload_bytes,seconds,"
                 "records_per_sec\n");
    if (single) {
      std::fprintf(csv, "corpus,%s,1,%zu,%llu,%.6f,%.0f\n",
                   spec.name.c_str(), records.size(),
                   static_cast<unsigned long long>(single->payload_bytes()),
                   single_seconds, single_rps);
    }
    std::fprintf(csv, "corpus,%s,%zu,%zu,%llu,%.6f,%.0f\n", spec.name.c_str(),
                 corpus->members().size(), records.size(),
                 static_cast<unsigned long long>(corpus->payload_bytes()),
                 corpus_seconds, corpus_rps);
    std::fclose(csv);
  }
  // The CSV and the N-member corpus are the artifacts; the one-member
  // copy is scratch.
  if (single) {
    for (const auto& member : single->members()) {
      std::remove(bench::out_path(member.meta.file).c_str());
    }
    std::remove(single_path.c_str());
  }

  if (require_speedup > 0 && spec.internet() &&
      corpus_speedup < require_speedup) {
    std::fprintf(stderr,
                 "[scan] FAIL: %zu-member corpus scan %.2fx the one-member "
                 "scan, below the required %.2fx\n",
                 corpus->members().size(), corpus_speedup, require_speedup);
    return 1;
  }
  return 0;
}
