#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <unordered_map>

#include "roots/corpus.h"
#include "roots/root_server.h"
#include "sim/ditl.h"

namespace perfbench {

namespace core = netclients::core;
namespace roots = netclients::roots;
namespace sim = netclients::sim;

double timed_setups(const std::function<void()>& setup, int count) {
  std::vector<double> durations;
  double start = 0;  // now_s() counts from process start
  for (int i = 0; i < count; ++i) {
    setup();
    const double end = now_s();
    durations.push_back(end - start);
    start = end;
  }
  malloc_trim(0);
  return median(durations);
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void derive_layer_metrics(const Tracer& tracer,
                          std::map<std::string, double>& m) {
  const std::vector<Span> spans = tracer.spans();
  std::unordered_map<int, double> child_wall;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_wall[s.parent] += s.wall();
  }
  struct Sum {
    double count = 0, wall = 0, self = 0, user = 0, sys = 0;
    double items = 0, bytes = 0;
    int threads = 1;
    double mean() const { return wall / count; }
    double cpu() const { return user + sys; }
  };
  std::map<std::string, Sum> sums;
  for (const Span& s : spans) {
    Sum& t = sums[s.name];
    t.count += 1;
    t.wall += s.wall();
    t.self += s.wall() - child_wall[s.id];
    t.user += s.user_s;
    t.sys += s.sys_s;
    t.items += static_cast<double>(s.items);
    t.bytes += static_cast<double>(s.bytes);
    t.threads = s.threads;
  }
  const auto has = [&](const char* name) {
    auto it = sums.find(name);
    return it != sums.end() && it->second.wall > 0;
  };
  const auto set = [&](const std::string& name, double value) {
    m.emplace(name, value);  // a value the workload set wins
  };
  if (has("sim.world")) set("sim.world_s", sums["sim.world"].mean());
  if (has("sim.generate_ditl")) {
    const Sum& s = sums["sim.generate_ditl"];
    set("sim.ditl_records_per_s", s.items / s.self);
  }
  if (has("roots.corpus_write")) {
    const Sum& s = sums["roots.corpus_write"];
    set("roots.corpus_write_mb_per_s", s.bytes / s.wall / 1e6);
  }
  if (has("roots.corpus_open")) {
    set("roots.corpus_open_s", sums["roots.corpus_open"].mean());
  }
  if (has("cacheprobe.discover_scopes")) {
    set("cacheprobe.scopes_s", sums["cacheprobe.discover_scopes"].mean());
  }
  if (has("cacheprobe.discover_pops")) {
    set("cacheprobe.pops_s", sums["cacheprobe.discover_pops"].mean());
  }
  if (has("cacheprobe.calibrate")) {
    set("cacheprobe.calibrate_s", sums["cacheprobe.calibrate"].mean());
  }
  if (has("cacheprobe.run_campaign")) {
    const Sum& s = sums["cacheprobe.run_campaign"];
    set("cacheprobe.campaign_s", s.mean());
    set("cacheprobe.probes", s.items / s.count);
    set("cacheprobe.probes_per_s", s.items / s.wall);
    set("cacheprobe.campaign_cpu_util", s.cpu() / (s.wall * s.threads));
    set("cacheprobe.campaign_sys_share", s.cpu() > 0 ? s.sys / s.cpu() : 0);
    if (has("cacheprobe.run_campaign.serial")) {
      set("cacheprobe.campaign_efficiency",
          sums["cacheprobe.run_campaign.serial"].mean() /
              (s.mean() * s.threads));
    }
  }
  if (has("chromium.scan")) {
    const Sum& s = sums["chromium.scan"];
    set("chromium.scan_s", s.mean());
    set("chromium.records_per_s", s.items / s.wall);
    set("chromium.mb_per_s", s.bytes / s.wall / 1e6);
    set("chromium.scan_cpu_util", s.cpu() / (s.wall * s.threads));
    if (has("chromium.scan.serial")) {
      set("chromium.scan_efficiency",
          sums["chromium.scan.serial"].mean() / (s.mean() * s.threads));
    }
  }
  if (has("snapshot.make_epoch")) {
    set("snapshot.make_epoch_s", sums["snapshot.make_epoch"].mean());
  }
  if (has("snapshot.encode")) {
    const Sum& s = sums["snapshot.encode"];
    set("snapshot.encode_mb_per_s", s.bytes / s.wall / 1e6);
  }
  if (has("snapshot.decode")) {
    const Sum& s = sums["snapshot.decode"];
    set("snapshot.decode_mb_per_s", s.bytes / s.wall / 1e6);
    set("snapshot.mb", s.bytes / s.count / 1e6);
  }
}

Capture write_capture(const sim::World& world, double sample_rate,
                      std::uint64_t ditl_seed,
                      std::uint64_t records_per_member,
                      const std::string& dir, const std::string& stem,
                      Tracer& tracer) {
  Capture cap;
  cap.exact = ExactDailyCounter(dir + "/" + stem + ".matches");
  const roots::RootSystem root_system =
      roots::RootSystem::ditl_2020(world.config().seed);
  sim::DitlOptions ditl;
  ditl.sample_rate = sample_rate;
  ditl.seed = ditl_seed;
  roots::CorpusWriter::Options ncd1;
  roots::CorpusWriter::Options ncp1;
  ncp1.format = roots::CorpusFormat::kNcp1;
  const std::string base = dir + "/" + stem;
  roots::CorpusWriter writer_a(base + "_a.manifest", ncd1);
  roots::CorpusWriter writer_b(base + "_b.manifest", ncp1);
  roots::CorpusWriter* writers[2] = {&writer_a, &writer_b};
  std::uint64_t in_member = 0;
  std::size_t member = 0;
  {
    Tracer::Scope generate(tracer, "sim.generate_ditl");
    sim::generate_ditl(
        world, root_system, ditl, [&](const roots::TraceRecord& rec) {
          roots::CorpusWriter& w = *writers[member % 2];
          w.add(rec);
          cap.exact.add(rec.qname, rec.timestamp, rec.source.value());
          if (++in_member < records_per_member) return;
          Tracer::Scope flush(tracer, "roots.corpus_write");
          const std::uint64_t before = w.manifest().total_bytes();
          w.rotate();
          flush.items(in_member);
          flush.bytes(w.manifest().total_bytes() - before);
          in_member = 0;
          ++member;
        });
    generate.items(cap.exact.records());
  }
  bool ok = true;
  {
    Tracer::Scope flush(tracer, "roots.corpus_write");
    const std::uint64_t before = writer_a.manifest().total_bytes() +
                                 writer_b.manifest().total_bytes();
    ok = writer_a.finish() && writer_b.finish();
    flush.items(in_member);
    flush.bytes(writer_a.manifest().total_bytes() +
                writer_b.manifest().total_bytes() - before);
  }
  // One manifest, members in generation order (A0, B0, A1, B1, ...).
  roots::CorpusManifest merged;
  const auto& a = writer_a.manifest().members;
  const auto& b = writer_b.manifest().members;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i < a.size()) merged.members.push_back(a[i]);
    if (i < b.size()) merged.members.push_back(b[i]);
  }
  cap.manifest = base + ".manifest";
  ok = ok && merged.write(cap.manifest);
  cap.records = ok ? merged.total_records() : 0;
  cap.bytes = merged.total_bytes();
  cap.members = merged.members.size();
  return cap;
}

core::ChromiumOptions scan_options(double sample_rate, int threads) {
  core::ChromiumOptions options;
  options.sample_rate = sample_rate;
  options.threads = threads;
  return options;
}

bool same_result(const core::ChromiumResult& a,
                 const core::ChromiumResult& b) {
  return a.records_scanned == b.records_scanned &&
         a.signature_matches == b.signature_matches &&
         a.rejected_collisions == b.rejected_collisions &&
         a.records_skipped == b.records_skipped &&
         a.probes_by_resolver == b.probes_by_resolver;
}

std::optional<core::ChromiumResult> scan_corpus(
    const std::string& manifest, const core::ChromiumOptions& options,
    Tracer& tracer, const char* span) {
  std::optional<roots::CorpusView> view;
  {
    Tracer::Scope open(tracer, "roots.corpus_open");
    view = roots::CorpusView::open(manifest);
  }
  if (!view) return std::nullopt;
  Tracer::Scope scan(tracer, span, options.threads);
  core::ChromiumResult result =
      core::ChromiumCounter(options).process_corpus(*view);
  scan.items(result.records_scanned);
  scan.bytes(view->payload_bytes());
  return result;
}

sim::WorldConfig world_config(double scale_denominator) {
  sim::WorldConfig config;
  config.scale = 1.0 / scale_denominator;
  return config;
}

}  // namespace perfbench
