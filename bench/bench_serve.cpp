// Serving-tier benchmark: persist a multi-epoch campaign to a
// netclients.snap.v1 snapshot, load it back, seed a `serve::Service`,
// and measure lookups through snapshot handles — the single-query path
// versus the batched path, then QPS and latency *under epoch churn*.
//
// The bench *checks* the serving determinism contract before it times
// anything: handle lookups must be identical at threads=1 and threads=8,
// elementwise-equal to per-query lookup() and to the radix-trie oracle
// the tests use (tests/index_reference.h, built from the loaded epochs),
// and WorkloadDriver::replay digests (single publisher, reader
// batches between publishes) must match at any intra-batch parallelism;
// any mismatch is a hard failure (exit 1).
//
// The churn section runs the mixed workload twice — a steady phase
// (readers only) and a churn phase (a live publisher continuously
// swapping re-keyed epochs in) — and reports per-phase QPS and
// p50/p99/p999 per-batch latency. `--require-churn-ratio=R` turns the
// "readers are never blocked by a publish" property into a gate: churn
// QPS below R × steady QPS exits 1 (CI passes 0.9; a failing attempt is
// retried once to ride out scheduler noise on small runners).
//
// Output: throughput tables on stdout, rows appended to
// bench_out/serve_qps.csv and bench_out/serve_latency.csv, the snapshot
// left at bench_out/serve.snap (CI uploads + gates all three), and
// `serve.bench.*` gauges via --metrics-out.
//
// Run:  build/bench/bench_serve [--queries=1048576] [--epochs=2]
//                               [--workload-queries=1048576]
//                               [--workload-users=1048576] [--batch=256]
//                               [--churn-retries=1]
//                               [--require-churn-ratio=0]
//                               [--snap-out=bench_out/serve.snap]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/serve/service.h"
#include "core/serve/workload.h"
#include "core/snapshot/snapshot.h"
#include "index_reference.h"
#include "net/rng.h"

using namespace netclients;
namespace snapshot = core::snapshot;
namespace serve = core::serve;

namespace {

using bench::flag_value;

using bench::flag_string;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Query mix for the single/batched comparison: half the addresses land
/// inside known-active prefixes (the hot serving case), half are uniform
/// over the probed address range.
std::vector<net::Ipv4Addr> make_queries(
    std::size_t count, const std::vector<snapshot::EpochRecord>& epochs,
    std::uint32_t space_begin, std::uint32_t space_end,
    std::uint64_t seed) {
  std::vector<net::Prefix> actives;
  for (const auto& epoch : epochs) {
    for (const auto& entry : epoch.prefixes) actives.push_back(entry.prefix);
  }
  net::Rng rng(seed);
  std::vector<net::Ipv4Addr> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!actives.empty() && (i & 1)) {
      const net::Prefix p = actives[rng() % actives.size()];
      const std::uint32_t span =
          ~net::Prefix::mask(p.length());  // host bits
      queries.push_back(net::Ipv4Addr(
          p.base().value() + static_cast<std::uint32_t>(rng()) % (span + 1u)));
    } else {
      const std::uint64_t span =
          (std::uint64_t{space_end} << 8) - (std::uint64_t{space_begin} << 8);
      queries.push_back(net::Ipv4Addr(static_cast<std::uint32_t>(
          (std::uint64_t{space_begin} << 8) + rng() % span)));
    }
  }
  return queries;
}

/// Service options with the epoch window pinned to the loaded chain, so
/// re-publishing churn epochs ages the oldest out instead of growing.
serve::ServiceOptions window_options(std::size_t max_epochs) {
  serve::ServiceOptions options;
  options.max_epochs = max_epochs;
  return options;
}

void print_phase(const serve::PhaseStats& phase) {
  std::printf("  %-8s %9llu q %7llu batches %8.3f s %12.0f qps "
              "p50 %7.1f us  p99 %8.1f us  p999 %8.1f us",
              phase.name.c_str(),
              static_cast<unsigned long long>(phase.queries),
              static_cast<unsigned long long>(phase.batches), phase.seconds,
              phase.qps, phase.latency.p50_us, phase.latency.p99_us,
              phase.latency.p999_us);
  if (phase.publishes > 0) {
    std::printf("  (%llu publishes, versions %llu..%llu)",
                static_cast<unsigned long long>(phase.publishes),
                static_cast<unsigned long long>(phase.version_min),
                static_cast<unsigned long long>(phase.version_max));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  // The internet presets multiply the query/user volume pushed through
  // the serving tier (the snapshot itself stays at the campaign's scale;
  // at internet scale it is the load, not the world, that grows here).
  const bench::ScaleSpec spec = bench::parse_scale(argc, argv);
  const std::size_t load_mult =
      spec.name == "internet" ? 8 : spec.internet() ? 2 : 1;
  const std::size_t queries_n = static_cast<std::size_t>(
      flag_value(argc, argv, "--queries", 1 << 20)) * load_mult;
  const int epochs_n =
      static_cast<int>(flag_value(argc, argv, "--epochs", 2));
  const std::string snap_path = flag_string(
      argc, argv, "--snap-out", bench::out_path("serve.snap"));
  const auto workload_queries = static_cast<std::size_t>(
      flag_value(argc, argv, "--workload-queries", 1 << 20)) * load_mult;
  const auto workload_users = static_cast<std::size_t>(
      flag_value(argc, argv, "--workload-users", 1 << 20)) * load_mult;
  const auto workload_batch = static_cast<std::size_t>(
      flag_value(argc, argv, "--batch", 256));
  const double require_churn_ratio =
      flag_value(argc, argv, "--require-churn-ratio", 0);
  const int churn_retries =
      static_cast<int>(flag_value(argc, argv, "--churn-retries", 1));

  // ---- 1. Multi-epoch campaign -> snapshot -----------------------------
  const core::Scenario scenario = core::ScenarioBuilder()
                                      .scale_denominator(
                                          bench::scale_denominator())
                                      .epochs(epochs_n)
                                      .build();
  std::fprintf(stderr, "[serve] world: %zu /24s, %d epoch(s)\n",
               scenario.world().blocks().size(), epochs_n);

  std::vector<snapshot::EpochRecord> records;
  {
    obs::StageSpan span("serve.bench.campaign_epochs");
    records = scenario.run_epochs();
  }
  {
    obs::StageSpan span("serve.bench.snapshot_write");
    if (!snapshot::write(snap_path, records)) return 1;
  }
  std::optional<snapshot::SnapshotFile> loaded;
  {
    obs::StageSpan span("serve.bench.snapshot_read");
    loaded = snapshot::read(snap_path);
  }
  if (!loaded || loaded->epochs.size() != records.size()) {
    std::fprintf(stderr, "[serve] snapshot round-trip failed\n");
    return 1;
  }
  std::printf("snapshot: %zu epoch(s) at %s\n", loaded->epochs.size(),
              snap_path.c_str());
  for (const auto& epoch : loaded->epochs) {
    std::printf("  epoch %u: %zu active prefixes, /24s in [%llu, %llu]\n",
                epoch.epoch_id, epoch.prefixes.size(),
                static_cast<unsigned long long>(epoch.totals.slash24_lower),
                static_cast<unsigned long long>(epoch.totals.slash24_upper));
  }

  if (loaded->epochs.size() >= 2) {
    const serve::EpochDiff diff =
        serve::diff_epochs(loaded->epochs.front(), loaded->epochs.back());
    std::printf("churn %u -> %u: +%zu gained, -%zu lost, %llu persisting, "
                "rank drift %.2f\n",
                diff.from_epoch, diff.to_epoch, diff.gained.size(),
                diff.lost.size(),
                static_cast<unsigned long long>(diff.persisting),
                diff.mean_rank_drift);
  }

  const std::span<const snapshot::EpochRecord> chain(loaded->epochs);

  // ---- 2. Seed the serving tier ----------------------------------------
  // One bulk publish = one index build; everything below reads through
  // pinned snapshot handles, never a directly constructed ClientIndex.
  const auto build_start = std::chrono::steady_clock::now();
  serve::Service service(
      window_options(loaded->epochs.size()));
  {
    obs::StageSpan span("serve.bench.index_build");
    service.publish(chain);
  }
  const double build_seconds = seconds_since(build_start);
  const serve::SnapshotHandle handle = service.acquire();
  const serve::ClientIndex& index = handle->index();
  std::printf("service: version %llu, %zu prefixes, %zu intervals, "
              "%zu ASes, seeded in %.1f ms\n",
              static_cast<unsigned long long>(handle->version()),
              index.prefix_count(), index.interval_count(),
              index.as_aggregates().size(), build_seconds * 1e3);

  const auto queries =
      make_queries(queries_n, loaded->epochs, scenario.env.slash24_begin,
                   scenario.env.slash24_end, 0x5E27E);

  // ---- 3. Determinism checks (before timing) ---------------------------
  const auto serial = handle->lookup_many(queries, 1);
  const auto parallel = handle->lookup_many(queries, 8);
  if (serial != parallel) {
    std::fprintf(stderr,
                 "[serve] FAIL: lookup_many differs between threads=1 "
                 "and threads=8\n");
    return 1;
  }
  const IndexReference reference(chain);
  for (std::size_t i = 0; i < queries.size(); i += 997) {
    if (handle->lookup(queries[i]) != serial[i] ||
        reference.lookup(queries[i]) != serial[i]) {
      std::fprintf(stderr,
                   "[serve] FAIL: lookup() or the reference oracle and "
                   "lookup_many() disagree at query %zu\n",
                   i);
      return 1;
    }
  }

  serve::WorkloadOptions workload_options;
  workload_options.users = workload_users;
  workload_options.queries = workload_queries;
  workload_options.batch = workload_batch;
  const serve::WorkloadDriver driver(workload_options, chain);

  // Replay the interleaving-free schedule (single publisher, batches
  // between publishes) at two intra-batch parallelism levels: the
  // digests must be byte-identical — the determinism contract under a
  // fixed churn schedule.
  const auto replay_digest = [&](int lookup_threads) {
    serve::Service replay_service(
        window_options(loaded->epochs.size()));
    replay_service.publish(loaded->epochs.front());
    return driver.replay(replay_service, chain.subspan(1),
                         /*publish_every=*/driver.batch_count() /
                             (loaded->epochs.size() + 1),
                         lookup_threads);
  };
  const serve::ReplayResult replay_one = replay_digest(1);
  const serve::ReplayResult replay_eight = replay_digest(8);
  if (replay_one != replay_eight) {
    std::fprintf(stderr,
                 "[serve] FAIL: replay digest differs between "
                 "lookup_threads=1 and 8\n");
    return 1;
  }
  std::printf("replay: digest %016llx over %llu queries, %llu publishes "
              "(identical at 1 and 8 lookup threads)\n",
              static_cast<unsigned long long>(replay_one.digest),
              static_cast<unsigned long long>(replay_one.queries),
              static_cast<unsigned long long>(replay_one.publishes));

  // ---- 4. Single vs batched throughput ---------------------------------
  std::uint64_t hits = 0;
  const auto single_start = std::chrono::steady_clock::now();
  for (const net::Ipv4Addr addr : queries) {
    hits += handle->lookup(addr).active ? 1 : 0;
  }
  const double single_seconds = seconds_since(single_start);

  // Steady-state serving: the output buffer is reused across batches, so
  // it is allocated (and its pages faulted in by the warm-up pass) before
  // the timer starts.
  std::vector<serve::LookupResult> batched(queries.size());
  handle->lookup_many(queries, batched.data(), 0);
  const auto batched_start = std::chrono::steady_clock::now();
  handle->lookup_many(queries, batched.data(), 0);
  const double batched_seconds = seconds_since(batched_start);

  const double single_qps =
      single_seconds > 0 ? static_cast<double>(queries.size()) / single_seconds
                         : 0;
  const double batched_qps =
      batched_seconds > 0
          ? static_cast<double>(queries.size()) / batched_seconds
          : 0;
  const double speedup = single_qps > 0 ? batched_qps / single_qps : 0;

  std::printf("\nlookup throughput (%zu queries, %.1f%% active)\n",
              queries.size(),
              100.0 * static_cast<double>(hits) /
                  static_cast<double>(queries.size()));
  std::printf("  %-10s %10s %14s\n", "mode", "seconds", "qps");
  std::printf("  %-10s %10.3f %14.0f\n", "single", single_seconds,
              single_qps);
  std::printf("  %-10s %10.3f %14.0f\n", "batched", batched_seconds,
              batched_qps);
  std::printf("  batched/single speedup: %.1fx\n", speedup);

  obs::Registry::global().gauge("serve.bench.single_qps").set(single_qps);
  obs::Registry::global().gauge("serve.bench.batched_qps").set(batched_qps);
  obs::Registry::global().gauge("serve.bench.speedup").set(speedup);
  obs::Registry::global()
      .gauge("serve.bench.index_build_ms")
      .set(build_seconds * 1e3);

  if (std::FILE* csv =
          std::fopen(bench::out_path("serve_qps.csv").c_str(), "w")) {
    std::fprintf(csv, "mode,queries,seconds,qps\n");
    std::fprintf(csv, "single,%zu,%.6f,%.0f\n", queries.size(),
                 single_seconds, single_qps);
    std::fprintf(csv, "batched,%zu,%.6f,%.0f\n", queries.size(),
                 batched_seconds, batched_qps);
    std::fclose(csv);
  }

  // Post-timing integrity: the timed batched pass must agree with the
  // pre-timing serial pass (also keeps `batched` alive so the compiler
  // cannot elide the timed work).
  if (batched != serial) {
    std::fprintf(stderr, "[serve] FAIL: timed batched pass diverged\n");
    return 1;
  }

  // ---- 5. QPS + latency under epoch churn ------------------------------
  // Steady phase (readers only) vs churn phase (a publisher continuously
  // swaps re-keyed epochs in). The RCU handle design means readers never
  // block on a publish; the ratio gate makes that measurable.
  serve::WorkloadReport report;
  for (int attempt = 0; ; ++attempt) {
    serve::Service churn_service(
        window_options(loaded->epochs.size()));
    churn_service.publish(chain);
    report = driver.run_under_churn(churn_service, chain);
    if (require_churn_ratio <= 0 ||
        report.churn_ratio >= require_churn_ratio ||
        attempt >= churn_retries) {
      break;
    }
    std::fprintf(stderr,
                 "[serve] churn ratio %.3f below %.3f, retrying "
                 "(%d/%d)\n",
                 report.churn_ratio, require_churn_ratio, attempt + 1,
                 churn_retries);
  }

  std::printf("\nmixed workload under churn (%zu users, %zu queries/phase, "
              "mean batch %zu, zipf %.2f)\n",
              workload_options.users, driver.query_count(),
              workload_options.batch, workload_options.user_zipf);
  print_phase(report.steady);
  print_phase(report.churn);
  std::printf("  churn/steady QPS ratio: %.3f\n", report.churn_ratio);

  obs::Registry::global()
      .gauge("serve.bench.steady_qps")
      .set(report.steady.qps);
  obs::Registry::global().gauge("serve.bench.churn_qps").set(report.churn.qps);
  obs::Registry::global()
      .gauge("serve.bench.churn_ratio")
      .set(report.churn_ratio);
  obs::Registry::global()
      .gauge("serve.bench.steady_p50_us")
      .set(report.steady.latency.p50_us);
  obs::Registry::global()
      .gauge("serve.bench.steady_p99_us")
      .set(report.steady.latency.p99_us);
  obs::Registry::global()
      .gauge("serve.bench.steady_p999_us")
      .set(report.steady.latency.p999_us);
  obs::Registry::global()
      .gauge("serve.bench.churn_p50_us")
      .set(report.churn.latency.p50_us);
  obs::Registry::global()
      .gauge("serve.bench.churn_p99_us")
      .set(report.churn.latency.p99_us);
  obs::Registry::global()
      .gauge("serve.bench.churn_p999_us")
      .set(report.churn.latency.p999_us);
  obs::Registry::global()
      .gauge("serve.bench.churn_publishes")
      .set(static_cast<double>(report.churn.publishes));

  if (std::FILE* csv =
          std::fopen(bench::out_path("serve_latency.csv").c_str(), "w")) {
    std::fprintf(csv,
                 "phase,queries,batches,seconds,qps,p50_us,p99_us,p999_us,"
                 "publishes\n");
    for (const serve::PhaseStats* phase :
         {&report.steady, &report.churn}) {
      std::fprintf(csv, "%s,%llu,%llu,%.6f,%.0f,%.1f,%.1f,%.1f,%llu\n",
                   phase->name.c_str(),
                   static_cast<unsigned long long>(phase->queries),
                   static_cast<unsigned long long>(phase->batches),
                   phase->seconds, phase->qps, phase->latency.p50_us,
                   phase->latency.p99_us, phase->latency.p999_us,
                   static_cast<unsigned long long>(phase->publishes));
    }
    std::fclose(csv);
  }

  if (require_churn_ratio > 0 &&
      report.churn_ratio < require_churn_ratio) {
    std::fprintf(stderr,
                 "[serve] FAIL: churn/steady QPS ratio %.3f below required "
                 "%.3f — readers stalled by publishes\n",
                 report.churn_ratio, require_churn_ratio);
    return 1;
  }
  return 0;
}
