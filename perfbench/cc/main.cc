// perfbench: the repository's benchmark. One workload per run:
//
//   perfbench --workload measure|crawl|serve|wire --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--spans-out FILE]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// record spans around every call into a layer, print the span tree and
// the per-layer metrics. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit code 1 when a check
// fails, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "core/exec/exec.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every untraced run. What the
// operation and the items are depends on the workload (see README.md).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"op_s", "s"},
    {"items_per_s", "1/s"},
};

// Every per-layer metric, printed by every traced run; a layer the
// workload does not call reports 0.
constexpr MetricDef kLayers[] = {
    {"sim.world_s", "s"},
    {"sim.ditl_records_per_s", "1/s"},
    {"roots.corpus_write_mb_per_s", "MB/s"},
    {"roots.corpus_open_s", "s"},
    {"cacheprobe.scopes_s", "s"},
    {"cacheprobe.pops_s", "s"},
    {"cacheprobe.calibrate_s", "s"},
    {"cacheprobe.campaign_s", "s"},
    {"cacheprobe.probes", "count"},
    {"cacheprobe.probes_per_s", "1/s"},
    {"cacheprobe.hits_per_probe", "ratio"},
    {"cacheprobe.campaign_cpu_util", "ratio"},
    {"cacheprobe.campaign_sys_share", "ratio"},
    {"cacheprobe.campaign_efficiency", "ratio"},
    {"chromium.scan_s", "s"},
    {"chromium.records_per_s", "1/s"},
    {"chromium.mb_per_s", "MB/s"},
    {"chromium.scan_cpu_util", "ratio"},
    {"chromium.scan_efficiency", "ratio"},
    {"snapshot.make_epoch_s", "s"},
    {"snapshot.encode_mb_per_s", "MB/s"},
    {"snapshot.decode_mb_per_s", "MB/s"},
    {"snapshot.mb", "MB"},
    {"serve.load_s", "s"},
    {"serve.first_publish_s", "s"},
    {"serve.steady_lookups_per_s", "1/s"},
    {"serve.churn_ratio", "ratio"},
    {"serve.batch_p50_ms", "ms"},
    {"serve.batch_p99_ms", "ms"},
    {"serve.acquire_ns", "ns"},
    {"netsvc.udp_lookups_per_s", "1/s"},
    {"netsvc.tcp_lookups_per_s", "1/s"},
    {"netsvc.requests", "count"},
    {"netsvc.answered_per_request", "ratio"},
    {"netsvc.escalations", "count"},
    {"netsvc.window_stalls", "count"},
    {"netsvc.codec_encode_mb_per_s", "MB/s"},
    {"netsvc.codec_decode_mb_per_s", "MB/s"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "measure|crawl|serve|wire --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--spans-out FILE]\n",
               why);
  return 2;
}

void print_json(const Result& r, bool correct, const MetricDef* defs,
                std::size_t count, const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string spans_out;
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      have_seed = end && *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value, &end);
      have_seconds = end && *end == '\0' && o.seconds > 0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      o.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--spans-out") {
      spans_out = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  Workload run = nullptr;
  if (o.workload == "measure") run = run_measure;
  if (o.workload == "crawl") run = run_crawl;
  if (o.workload == "serve") run = run_serve;
  if (o.workload == "wire") run = run_wire;
  if (!run) return usage("unknown --workload");
  if (o.work_dir.empty()) o.work_dir = ".bench_build/work";
  o.work_dir += "/" + o.workload + "-" + std::to_string(o.seed);
  std::error_code ec;
  std::filesystem::remove_all(o.work_dir, ec);
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) return usage(("cannot create " + o.work_dir).c_str());
  o.threads = netclients::core::exec::thread_count();

  Tracer tracer(o.trace);
  Result r = run(o, tracer);
  std::filesystem::remove_all(o.work_dir, ec);
  r.e2e["peak_rss_mb"] = peak_rss_mb();
  for (const MetricDef& m : kEndToEnd) {
    const auto it = r.e2e.find(m.name);
    if (it == r.e2e.end() || !(it->second > 0) || !std::isfinite(it->second)) {
      r.problems.push_back(std::string("metric ") + m.name +
                           " was not measured");
    }
  }
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = r.problems.empty() && r.attempted > 0;
  if (o.trace) {
    derive_layer_metrics(tracer, r.layers);
    std::printf("workload %s, seed %llu, %d threads\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.threads);
    tracer.print_tree(stdout);
    std::printf("end-to-end under tracing:");
    for (const MetricDef& m : kEndToEnd) {
      std::printf(" %s=%.6g", m.name, r.e2e[m.name]);
    }
    std::printf("\n");
    std::printf("peak RSS: %.1f MiB when set-up ended, %.1f MiB in all\n",
                r.setup_rss_mb, r.e2e["peak_rss_mb"]);
    if (!spans_out.empty() && !tracer.write_jsonl(spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
    }
    print_json(r, correct, kLayers, std::size(kLayers), r.layers);
  } else {
    print_json(r, correct, kEndToEnd, std::size(kEndToEnd), r.e2e);
  }
  // End without running static destructors. exec::parallel_map and
  // exec::steal_map signal their caller's condition variable after the
  // caller may already have returned, so a pool worker can be left
  // blocked for good on a mutex in a finished call's frame; the shared
  // pool's destructor would then wait for it forever.
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(correct ? 0 : 1);
}
