#pragma once

// Shared plumbing of the four workloads: run options, the result every
// workload returns, the metric tables, and the DITL capture writer that
// `measure` and `crawl` share.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "sim/world.h"
#include "trace.h"

namespace netclients::core::serve {
class Service;
}  // namespace netclients::core::serve

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for generated files (created, emptied at exit).
  std::string work_dir;
  /// REPRO_THREADS: the parallelism the program's stages run at.
  int threads = 1;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Problems problems;  // empty = every check passed
  /// End-to-end values by metric name. A traced run computes them too,
  /// for the tracing-overhead comparison, but reports only `layers`.
  std::map<std::string, double> e2e;
  /// Per-layer values set directly by the workload; the rest come from
  /// derive_layer_metrics.
  std::map<std::string, double> layers;
  /// peak_rss_mb() when set-up ended, printed by traced runs beside the
  /// run's peak.
  double setup_rss_mb = 0;

  void expect(const Problems& found, const std::string& where) {
    for (const auto& p : found) problems.push_back(where + ": " + p);
  }
};

using Workload = Result (*)(const Options&, Tracer&);
Result run_measure(const Options& options, Tracer& tracer);
Result run_crawl(const Options& options, Tracer& tracer);
Result run_serve(const Options& options, Tracer& tracer);
Result run_wire(const Options& options, Tracer& tracer);

/// Runs `setup` `count` times and returns the median duration; the first
/// is timed from process start, so it includes start-up. Then hands the
/// heap's free pages back to the system (malloc_trim), so memory that
/// set-up freed does not stay in the resident set that the rest of the
/// run's peak is measured from.
double timed_setups(const std::function<void()>& setup, int count = 3);

/// Nanoseconds per Service::acquire, over a loop on one thread.
double acquire_ns(const netclients::core::serve::Service& service,
                  Tracer& tracer);

double median(std::vector<double> values);
/// q in [0, 1], interpolated between the nearest ranks of a sorted copy.
double quantile(std::vector<double> values, double q);
/// Peak resident set of the process so far, MiB.
double peak_rss_mb();

/// Derives the per-layer metrics that are plain functions of span totals
/// (see the README's span table) into `metrics`; values a workload sets
/// itself are left alone.
void derive_layer_metrics(const Tracer& tracer,
                          std::map<std::string, double>& metrics);

/// A DITL capture written as an NCCORPUS corpus whose members alternate
/// NCD1 and NCP1, plus the exact counter fed with every record.
struct Capture {
  std::string manifest;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::size_t members = 0;
  ExactDailyCounter exact;
};

/// Generates the world's DITL capture at `sample_rate` with `ditl_seed`
/// into `dir`, one member per `records_per_member` records. The exact
/// counter is fed, spilling to a file in `dir`, but not finished: that is
/// check work, kept out of set-up time and its memory. Spans:
/// `sim.generate_ditl` around generation, `roots.corpus_write` around
/// each member flush.
Capture write_capture(const netclients::sim::World& world,
                      double sample_rate, std::uint64_t ditl_seed,
                      std::uint64_t records_per_member,
                      const std::string& dir, const std::string& stem,
                      Tracer& tracer);

/// Chromium options for scans of a capture sampled at `sample_rate`.
netclients::core::ChromiumOptions scan_options(double sample_rate,
                                               int threads);

/// Whether two scans agree on every count they report.
bool same_result(const netclients::core::ChromiumResult& a,
                 const netclients::core::ChromiumResult& b);

/// One scan of a corpus — CorpusView::open, then process_corpus, the two
/// calls process_corpus_file makes — traced as `roots.corpus_open` and
/// `span`. Empty when the manifest cannot be opened.
std::optional<netclients::core::ChromiumResult> scan_corpus(
    const std::string& manifest,
    const netclients::core::ChromiumOptions& options, Tracer& tracer,
    const char* span);

/// The world of the given scale, generated with the paper benches' fixed
/// world seed. World size swings by a third between generation seeds, so
/// a seeded world would make run-to-run spread a property of the
/// generator; what the measurement draws (probe streams, the Google front
/// end's pools, the DITL capture) derives from the run's seed instead.
netclients::sim::WorldConfig world_config(double scale_denominator);

}  // namespace perfbench
