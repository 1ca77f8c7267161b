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
// With an internet preset the bench first streams the planned world
// through the bounded-memory WorldStreamer and hard-fails if the arena
// high-water mark exceeds the preset's memory budget — the "10M routed
// /24s without 10M-block allocations" claim, enforced.
//
// Output: a throughput table on stdout, rows in
// bench_out/scan_throughput.csv (CI uploads + gates it), and gauges
// `chromium.scan.corpus_records_per_sec` / `chromium.scan.corpus_speedup`
// (N members over one) / `chromium.scan.steal_ratio` (plus `bench.stream.*`
// at internet scale) via --metrics-out. `--require-speedup=X` (CI passes
// 1.0) exits 1, at internet scale, when the N-member scan is less than X
// times the one-member scan at equal threads.
//
// Run:  build/bench/bench_scan [--scale=paper|internet-lite|internet]
//                              [--reps=3] [--require-speedup=0]

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
#include "sim/stream.h"

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

/// Streams the internet-scale world under the preset's arena budget and
/// enforces it: arena high-water mark over budget is a hard failure, as
/// is missing the routed-/24 target by more than per-AS rounding.
int run_stream_phase(const bench::ScaleSpec& spec) {
  sim::StreamConfig config;
  config.target_routed_slash24s = spec.stream_slash24s;
  config.memory_budget_bytes = spec.stream_budget_bytes;
  const sim::WorldStreamer streamer(config);

  const std::size_t rss_before = sim::current_rss_bytes();
  const auto start = std::chrono::steady_clock::now();
  sim::StreamStats stats;
  {
    obs::StageSpan span("scan.bench.world_stream");
    stats = streamer.run(nullptr);
  }
  const double seconds = seconds_since(start);
  const std::size_t rss_after = sim::current_rss_bytes();
  const double blocks_per_sec =
      seconds > 0 ? static_cast<double>(stats.slash24s) / seconds : 0;

  std::printf("world stream (%s): %llu /24s (%llu routed, %llu active) "
              "over %llu ASes\n",
              spec.name.c_str(),
              static_cast<unsigned long long>(stats.slash24s),
              static_cast<unsigned long long>(stats.routed_slash24s),
              static_cast<unsigned long long>(stats.active_slash24s),
              static_cast<unsigned long long>(stats.ases));
  std::printf("  %llu batches, arena peak %.1f MiB of %.1f MiB budget, "
              "%.0f blocks/sec\n",
              static_cast<unsigned long long>(stats.batches),
              stats.arena_peak_bytes / (1024.0 * 1024.0),
              spec.stream_budget_bytes / (1024.0 * 1024.0), blocks_per_sec);
  if (rss_after > 0) {
    std::printf("  rss %.1f MiB -> %.1f MiB (digest %016llx)\n",
                rss_before / (1024.0 * 1024.0),
                rss_after / (1024.0 * 1024.0),
                static_cast<unsigned long long>(stats.digest));
  }

  obs::Registry& registry = obs::Registry::global();
  registry.gauge("bench.stream.slash24s")
      .set(static_cast<double>(stats.slash24s));
  registry.gauge("bench.stream.routed_slash24s")
      .set(static_cast<double>(stats.routed_slash24s));
  registry.gauge("bench.stream.blocks_per_sec").set(blocks_per_sec);
  registry.gauge("bench.stream.arena_peak_bytes")
      .set(static_cast<double>(stats.arena_peak_bytes));
  registry.gauge("bench.stream.rss_bytes")
      .set(static_cast<double>(rss_after));

  if (stats.arena_peak_bytes > spec.stream_budget_bytes) {
    std::fprintf(stderr,
                 "[scan] FAIL: stream arena peak %llu bytes exceeds the "
                 "%zu-byte budget\n",
                 static_cast<unsigned long long>(stats.arena_peak_bytes),
                 spec.stream_budget_bytes);
    return 1;
  }
  // The plan hits the target within per-AS rounding; 1% slack is generous.
  const auto target = static_cast<double>(spec.stream_slash24s);
  if (static_cast<double>(stats.routed_slash24s) < 0.99 * target) {
    std::fprintf(stderr,
                 "[scan] FAIL: streamed %llu routed /24s, short of the "
                 "%llu target\n",
                 static_cast<unsigned long long>(stats.routed_slash24s),
                 static_cast<unsigned long long>(spec.stream_slash24s));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  const bench::ScaleSpec spec = bench::parse_scale(argc, argv);
  const int reps = static_cast<int>(flag_value(argc, argv, "--reps", 3));
  const double require_speedup =
      flag_value(argc, argv, "--require-speedup", 0);

  // ---- 0. Internet-scale streaming world (budget-gated) ----------------
  if (spec.internet()) {
    if (const int rc = run_stream_phase(spec); rc != 0) return rc;
  }

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
  // Best of `reps`; the two corpora alternate within a rep so both see
  // the same machine state.
  double single_seconds = 1e30;
  double corpus_seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    if (single) {
      single_seconds = std::min(
          single_seconds, timed_scan(counter, single_path, nullptr, &sink));
    }
    core::exec::StealTelemetry rep_steal;
    const double seconds =
        timed_scan(counter, manifest_path, &rep_steal, &sink);
    if (seconds < corpus_seconds) {
      corpus_seconds = seconds;
      steal = rep_steal;
    }
  }
  if (corpus_seconds <= 0 || single_seconds <= 0) {
    std::fprintf(stderr, "[scan] cannot reopen the corpus\n");
    return 1;
  }
  const double corpus_rps = n / corpus_seconds;
  const double single_rps = single ? n / single_seconds : corpus_rps;
  const double corpus_speedup = corpus_rps / single_rps;
  const double steal_ratio =
      steal.tasks > 0
          ? static_cast<double>(steal.stolen_tasks) / steal.tasks
          : 0;

  std::printf("trace scan throughput (%zu records, %zu corpus member(s), "
              "best of %d)\n",
              records.size(), corpus->members().size(), reps);
  std::printf("  %-12s %10s %16s\n", "members", "seconds", "records/sec");
  if (single) {
    std::printf("  %-12d %10.3f %16.0f\n", 1, single_seconds, single_rps);
  }
  std::printf("  %-12zu %10.3f %16.0f\n", corpus->members().size(),
              corpus_seconds, corpus_rps);
  std::printf("  %zu member(s) / 1 member: %.2fx  (checksum %llu)\n",
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
