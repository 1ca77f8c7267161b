// `measure`: the paper pipeline on a 1/256 world — scope discovery, PoP
// discovery, calibration, the campaign, a corpus scan of the world's DITL
// capture, make_epoch for both techniques, and snapshot encode + write.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>

#include "bench.h"
#include "core/chromium/chromium.h"
#include "core/scenario/scenario.h"
#include "core/snapshot/snapshot.h"

namespace perfbench {

namespace core = netclients::core;
namespace snapshot = netclients::core::snapshot;

namespace {

constexpr double kScale = 256;       // world size denominator
constexpr double kSample = 1.0 / 64;  // DITL sample rate
constexpr std::uint64_t kRecordsPerMember = 200'000;
// About one pipeline's wall time at 4 threads.
constexpr double kPipelineSeconds = 10;

core::Scenario build_scenario(const Options& o, int threads) {
  core::CacheProbeOptions probe;
  probe.seed = derive(o.seed, 0x50524F4245u);  // "PROBE"
  netclients::googledns::GoogleDnsConfig google;
  google.seed = derive(o.seed, 0x47444E53u);  // "GDNS"
  return core::ScenarioBuilder()
      .world_config(world_config(kScale))
      .probe_options(probe)
      .google_config(google)
      .threads(threads)
      .build();
}

/// Prints the prefix-length mix of an epoch, in the buckets of LengthMix
/// (gen.h): the serving workloads draw their prefixes from this mix.
void print_length_mix(const char* what, const snapshot::EpochRecord& epoch) {
  const auto bucket = [](int len) {
    if (len < 16 || len > 28) return 5;  // other
    if (len == 16) return 0;
    if (len <= 20) return 1;
    if (len <= 23) return 2;
    return len == 24 ? 3 : 4;
  };
  double per_mille[6] = {};  // /16, /17-/20, /21-/23, /24, /25-/28, other
  for (const snapshot::PrefixEntry& e : epoch.prefixes) {
    per_mille[bucket(e.prefix.length())] += 1;
  }
  const double n =
      static_cast<double>(std::max<std::size_t>(1, epoch.prefixes.size()));
  for (double& v : per_mille) v *= 1e3 / n;
  std::printf("%s epoch: %zu prefixes; per mille /16 %.1f, /17-/20 %.1f, "
              "/21-/23 %.1f, /24 %.1f, /25-/28 %.1f, other %.1f\n",
              what, epoch.prefixes.size(), per_mille[0], per_mille[1],
              per_mille[2], per_mille[3], per_mille[4], per_mille[5]);
}

}  // namespace

Result run_measure(const Options& o, Tracer& tracer) {
  Result r;
  const int n = o.threads;
  core::Scenario scenario;
  Capture capture;
  const auto build = [&] {
    scenario = {};
    Tracer::Scope span(tracer, "sim.world", n);
    scenario = build_scenario(o, n);
    span.items(scenario.world().blocks().size());
  };
  const double setup_s = timed_setups([&] {
    capture = {};  // the last set-up's capture is not held during this one
    build();
    capture = write_capture(scenario.world(), kSample,
                            derive(o.seed, 0x4449544Cu),  // "DITL"
                            kRecordsPerMember, o.work_dir, "measure", tracer);
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

  const std::string snap_path = o.work_dir + "/measure.snap";
  std::vector<double> walls;
  double blocks = 0;
  core::CampaignResult campaign;
  std::vector<std::vector<core::ProbeCandidate>> scopes;
  core::PopDiscoveryResult pops;
  core::CalibrationResult calibration;
  // A fixed count, one per kPipelineSeconds of --seconds: a count read
  // off the clock would vary with the host's speed, and the run's peak
  // memory with it.
  const int pipelines = std::max(
      1, static_cast<int>(std::lround(o.seconds / kPipelineSeconds)));
  for (int p = 0; p < pipelines; ++p) {
    if (p > 0) build();  // a fresh Google front end per pipeline
    const core::ProbeEnvironment& env = scenario.env;
    const core::CacheProbeOptions& opts = scenario.options;
    const double t0 = now_s();
    std::optional<Tracer::Scope> pipeline;
    pipeline.emplace(tracer, "measure.pipeline", n);
    scopes.clear();
    {
      Tracer::Scope span(tracer, "cacheprobe.discover_scopes", n);
      std::uint64_t candidates = 0;
      for (std::size_t d = 0; d < env.domains.size(); ++d) {
        scopes.push_back(
            core::discover_scopes(env, opts, static_cast<int>(d)));
        candidates += scopes.back().size();
        ++r.attempted;
      }
      span.items(candidates);
    }
    {
      Tracer::Scope span(tracer, "cacheprobe.discover_pops", n);
      pops = core::discover_pops(env);
      ++r.attempted;
    }
    {
      Tracer::Scope span(tracer, "cacheprobe.calibrate", n);
      calibration = core::calibrate(env, opts, pops);
      ++r.attempted;
    }
    {
      Tracer::Scope span(tracer, "cacheprobe.run_campaign", n);
      campaign = core::run_campaign(env, opts, pops, calibration, &scopes);
      span.items(campaign.probes_sent);
      ++r.attempted;
    }
    const std::optional<core::ChromiumResult> scan = scan_corpus(
        capture.manifest, scan_options(kSample, n), tracer, "chromium.scan");
    ++r.attempted;
    if (!scan) {
      ++r.failed;
      r.problems.push_back("scan: corpus manifest unreadable");
      break;
    }
    std::vector<snapshot::EpochRecord> epochs;
    {
      Tracer::Scope span(tracer, "snapshot.make_epoch");
      epochs.push_back(
          snapshot::make_epoch(campaign, scenario.world(), 0, opts));
      span.items(epochs.back().prefixes.size());
      ++r.attempted;
    }
    {
      Tracer::Scope span(tracer, "snapshot.make_epoch");
      epochs.push_back(snapshot::make_epoch(
          *scan, scenario.world(), 1,
          snapshot::options_digest(scan_options(kSample, n))));
      span.items(epochs.back().prefixes.size());
      ++r.attempted;
    }
    std::string bytes;
    {
      Tracer::Scope span(tracer, "snapshot.encode");
      bytes = snapshot::encode(epochs);
      std::ofstream(snap_path, std::ios::binary).write(
          bytes.data(), static_cast<std::streamsize>(bytes.size()));
      span.bytes(bytes.size());
      ++r.attempted;
    }
    pipeline.reset();
    walls.push_back(now_s() - t0);
    if (tracer.enabled() && walls.size() == 1) {
      print_length_mix("campaign", epochs[0]);
      print_length_mix("scan", epochs[1]);
    }
    blocks += static_cast<double>(scenario.world().blocks().size());

    r.expect(check_hit_scopes(scenario.world(), campaign), "campaign");
    r.expect(capture.exact.check(*scan), "scan");
    std::optional<snapshot::SnapshotFile> decoded;
    {
      Tracer::Scope span(tracer, "snapshot.decode");
      decoded = snapshot::decode(bytes);
      span.bytes(bytes.size());
    }
    if (!decoded || !(decoded->epochs == epochs) ||
        decoded->stats.sections_skipped != 0) {
      r.problems.push_back("snapshot: decode(encode(epochs)) != epochs");
    }
    const std::string invalid = snapshot::validate(bytes);
    if (!invalid.empty()) r.problems.push_back("snapshot: " + invalid);
  }

  r.e2e["setup_s"] = setup_s;
  r.e2e["op_s"] = median(walls);
  double total = 0;
  for (double w : walls) total += w;
  r.e2e["items_per_s"] = blocks / total;

  if (tracer.enabled() && !walls.empty()) {
    // The campaign and the scan once more at one thread, on a fresh
    // front end, for the parallel-efficiency metrics.
    core::Scenario serial = build_scenario(o, 1);
    {
      Tracer::Scope span(tracer, "cacheprobe.run_campaign.serial", 1);
      const core::CampaignResult one = core::run_campaign(
          serial.env, serial.options, pops, calibration, &scopes);
      span.items(one.probes_sent);
      if (one.probes_sent != campaign.probes_sent ||
          one.hits.size() != campaign.hits.size()) {
        r.problems.push_back("campaign: 1-thread run differs from " +
                             std::to_string(n) + "-thread run");
      }
    }
    const auto one = scan_corpus(capture.manifest, scan_options(kSample, 1),
                                 tracer, "chromium.scan.serial");
    if (one) r.expect(capture.exact.check(*one), "scan at 1 thread");
    r.layers["cacheprobe.hits_per_probe"] =
        campaign.probes_sent
            ? static_cast<double>(campaign.hits.size()) /
                  static_cast<double>(campaign.probes_sent)
            : 0;
  }
  return r;
}

}  // namespace perfbench
