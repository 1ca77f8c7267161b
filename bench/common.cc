#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>

#include <unistd.h>

#include "core/exec/exec.h"
#include "core/obs/obs.h"

namespace netclients::bench {

namespace {

double env_denominator(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  const double parsed = std::atof(value);
  return parsed > 0 ? parsed : fallback;
}

/// Routes every obs::StageSpan — the pipelines' internal stage spans and
/// the bench-level ones alike — to stderr, so the registry is the single
/// source of truth for stage timing and the narration can never drift from
/// what gets exported.
void install_span_narrator() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::set_span_logger(obs::SpanLogger{
        [](std::string_view name) {
          std::fprintf(stderr, "[bench] %.*s...\n",
                       static_cast<int>(name.size()), name.data());
        },
        [](std::string_view name, double ms) {
          std::fprintf(stderr, "[bench] %.*s: %.0f ms\n",
                       static_cast<int>(name.size()), name.data(), ms);
        }});
  });
}

}  // namespace

double scale_denominator() { return env_denominator("REPRO_SCALE", 64); }

double ditl_sample_denominator() {
  return env_denominator("REPRO_DITL_SAMPLE", 64);
}

double flag_value(int argc, char** argv, const char* name, double fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::string flag_string(int argc, char** argv, const char* name,
                        const std::string& fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

bool flag_present(int argc, char** argv, const char* name) {
  const std::string bare = name;
  const std::string prefix = bare + "=";
  for (int i = 1; i < argc; ++i) {
    if (bare == argv[i] ||
        std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return true;
    }
  }
  return false;
}

ScaleSpec parse_scale(int argc, char** argv) {
  const std::string name = flag_string(argc, argv, "--scale", "paper");
  ScaleSpec spec;
  spec.name = name;
  if (name == "paper") return spec;
  if (name == "internet-lite") {
    spec.corpus_files = 4;
    return spec;
  }
  if (name == "internet") {
    spec.corpus_files = 16;
    return spec;
  }
  std::fprintf(stderr,
               "[bench] unknown --scale=%s (want paper, internet-lite, "
               "or internet)\n",
               name.c_str());
  std::exit(2);
}

Pipelines PipelineBuilder::build() const {
  install_span_narrator();
  obs::Registry& registry = obs::Registry::global();
  Pipelines p;
  const int threads = threads_ > 0 ? threads_ : core::exec::thread_count();
  registry.gauge("bench.scale_denominator").set(scale_denominator());
  {
    obs::StageSpan span("bench.world_generation");
    std::fprintf(stderr, "[bench] scale 1/%.0f, %d threads\n",
                 scale_denominator(), threads);
    p.scenario = core::ScenarioBuilder()
                     .scale_denominator(scale_denominator())
                     .threads(threads)
                     .build();
    std::fprintf(stderr, "[bench] %zu ASes, %zu /24s, %.0f users\n",
                 p.world().ases().size(), p.world().blocks().size(),
                 p.world().total_users());
    registry.gauge("bench.world.ases")
        .set(static_cast<double>(p.world().ases().size()));
    registry.gauge("bench.world.slash24s")
        .set(static_cast<double>(p.world().blocks().size()));
    registry.gauge("bench.world.users").set(p.world().total_users());
  }

  p.campaign = std::make_unique<core::CacheProbeCampaign>(
      p.scenario.env, p.scenario.options);

  if (cache_probing_) {
    obs::StageSpan span("bench.cache_probing_campaign");
    core::CampaignArtifacts artifacts = p.campaign->run();
    p.pops = std::move(artifacts.pops);
    p.calibration = std::move(artifacts.calibration);
    p.probing = std::move(artifacts.result);
    p.probing_prefixes = p.probing.to_prefix_dataset("cache probing");
    std::fprintf(stderr, "[bench] %llu probes, %zu hits\n",
                 static_cast<unsigned long long>(p.probing.probes_sent),
                 p.probing.hits.size());
  }

  if (chromium_) {
    obs::StageSpan span("bench.ditl_crawl");
    const roots::RootSystem root_system =
        roots::RootSystem::ditl_2020(p.world().config().seed);
    sim::DitlOptions ditl;
    ditl.sample_rate = 1.0 / ditl_sample_denominator();
    core::ChromiumOptions chromium_options;
    chromium_options.sample_rate = ditl.sample_rate;
    chromium_options.threads = threads;
    // The capture is generated once into a scratch corpus, scanned in
    // place, and removed.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("netclients-ditl-" + std::to_string(::getpid()));
    const auto corpus = sim::write_ditl_corpus(p.world(), root_system, ditl,
                                               dir / "ditl.manifest");
    if (!corpus) {
      std::fprintf(stderr, "[bench] cannot write a DITL corpus in %s\n",
                   dir.c_str());
      std::exit(1);
    }
    p.chromium = core::ChromiumCounter(chromium_options).process_corpus(*corpus);
    std::filesystem::remove_all(dir);
    p.logs_prefixes = p.chromium.to_prefix_dataset("DNS logs");
  }

  if (validation_) {
    obs::StageSpan span("bench.cdn_apnic_observation");
    p.ms = cdn::observe_cdn(p.world(), {});
    p.apnic = apnic::estimate_population(p.world(), {});
    for (const auto& [idx, volume] : p.ms.client_volume) {
      p.clients_prefixes.add(idx, volume);
    }
    for (const auto& [idx, clients] : p.ms.resolver_clients) {
      p.resolvers_prefixes.add(idx, clients);
    }
    for (std::uint32_t idx : p.ms.ecs_prefixes) p.ecs_prefixes.add(idx);
    for (const auto& [asn, users] : p.apnic.users_by_as) {
      p.apnic_as.add(asn, users);
    }
  }

  p.union_prefixes = core::PrefixDataset::union_of(
      "cache probing + DNS logs", p.probing_prefixes, p.logs_prefixes);
  p.probing_as = core::to_as_dataset("cache probing", p.probing_prefixes,
                                     p.world());
  p.logs_as = core::to_as_dataset("DNS logs", p.logs_prefixes, p.world());
  p.union_as = core::AsDataset::union_of("cache probing + DNS logs",
                                         p.probing_as, p.logs_as);
  p.clients_as =
      core::to_as_dataset("Microsoft clients", p.clients_prefixes, p.world());
  p.resolvers_as = core::to_as_dataset("Microsoft resolvers",
                                       p.resolvers_prefixes, p.world());
  return p;
}

std::string out_path(const std::string& name) {
  std::filesystem::create_directories("bench_out");
  return "bench_out/" + name;
}

}  // namespace netclients::bench
