// snapctl — inspect, validate, diff, and serve netclients.snap.v1
// snapshot files.
//
//   snapctl inspect  <file>            per-epoch summary + read stats
//   snapctl validate <file>            strict framing/CRC/chain check
//   snapctl diff     <file> [from to]  churn between two epochs
//                                      (default: the last two)
//   snapctl serve    <file> [workload] publish the chain into a
//                                      serve::Service, replay a mixed
//                                      workload, print QPS + latency
//   snapctl netserve <file> [key=value ...]
//                                      publish the chain, stand the
//                                      netsvc server/client pair up on a
//                                      simulated bus, drive a batched
//                                      lookup workload over the NCS1
//                                      wire protocol, verify wire parity
//                                      against direct handle lookups,
//                                      and print the netsvc.* counters
//
// `netserve` knobs (defaults in parentheses): transport=udp|tcp (udp),
// queries=N (65536), batch=N (8), loss=P (0), attempts=N (3). With
// loss>0 the bus fault plane drops datagrams at rate P and the client's
// retry/escalation stack recovers; parity is then asserted only for
// chunks that succeeded (failed chunks are reported, not a parity
// error).
//
// `validate` is the strict gate (exit 1 on the first structural problem —
// the same check CI applies to snapshot artifacts via metrics_check);
// `inspect` and `diff` read tolerantly, reporting skipped sections rather
// than failing, so a damaged capture can still be examined.
//
// `serve` stands the serving tier up on the file: every epoch is
// published in chain order (the rolling swaps a deployment would see),
// then a WorkloadDriver stream runs a steady and a churn phase through
// snapshot handles. The optional workload file is `key=value` lines
// (`#` comments) overriding WorkloadOptions — e.g.
//     queries=4194304
//     users=1048576
//     user_zipf=1.2
//     miss_fraction=0.4

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/serve/service.h"
#include "core/serve/workload.h"
#include "core/snapshot/snapshot.h"
#include "net/rng.h"
#include "netsim/bus.h"
#include "netsim/fault.h"
#include "netsvc/client.h"
#include "netsvc/server.h"

using namespace netclients;
namespace snapshot = core::snapshot;
namespace serve = core::serve;

namespace {

std::optional<std::string> slurp(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

/// "1.2 MiB"-style rendering; bytes below 1 KiB print exact.
std::string human_bytes(std::uint64_t bytes) {
  char buf[32];
  if (bytes < 1024) {
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else if (bytes < (std::uint64_t{1} << 20)) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", bytes / 1024.0);
  } else if (bytes < (std::uint64_t{1} << 30)) {
    std::snprintf(buf, sizeof buf, "%.1f MiB", bytes / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof buf, "%.2f GiB",
                  bytes / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

std::optional<snapshot::SnapshotFile> load(const char* path) {
  auto file = snapshot::read(path);
  if (!file) {
    std::fprintf(stderr, "snapctl: %s is not a %s file (or unreadable)\n",
                 path, std::string(snapshot::kSchemaName).c_str());
  }
  return file;
}

void print_stats(const snapshot::ReadStats& stats) {
  if (stats.sections_skipped == 0 && !stats.truncated) return;
  std::printf("  warnings: %llu section(s) skipped (%llu CRC failures), "
              "%llu epoch(s) dropped%s\n",
              static_cast<unsigned long long>(stats.sections_skipped),
              static_cast<unsigned long long>(stats.crc_failures),
              static_cast<unsigned long long>(stats.epochs_skipped),
              stats.truncated ? ", file truncated" : "");
}

int run_inspect(const char* path, int, char**) {
  const auto file = load(path);
  if (!file) return 1;
  std::printf("%s: %s, %zu epoch(s)\n", path,
              std::string(snapshot::kSchemaName).c_str(),
              file->epochs.size());
  print_stats(file->stats);
  for (const auto& epoch : file->epochs) {
    std::printf(
        "  epoch %u: world seed %llu, options digest %016llx\n"
        "    %zu active prefixes, active /24s in [%llu, %llu]\n"
        "    %llu probes, %llu hits, %zu ASes, %zu countries, "
        "%u domain(s)\n",
        epoch.epoch_id, static_cast<unsigned long long>(epoch.world_seed),
        static_cast<unsigned long long>(epoch.options_digest),
        epoch.prefixes.size(),
        static_cast<unsigned long long>(epoch.totals.slash24_lower),
        static_cast<unsigned long long>(epoch.totals.slash24_upper),
        static_cast<unsigned long long>(epoch.totals.probes_sent),
        static_cast<unsigned long long>(epoch.totals.cache_hits),
        epoch.as_aggregates.size(), epoch.countries.size(),
        epoch.domain_count);
  }

  // Footprint breakdown: walk the raw frames so per-section byte sizes
  // (and their share of the file) are visible without decoding twice.
  const auto bytes = slurp(path);
  const auto sections =
      bytes ? snapshot::section_sizes(*bytes) : std::nullopt;
  if (sections) {
    struct KindTotal {
      std::uint64_t payload = 0;
      std::uint64_t count = 0;
    };
    // Aggregate by kind in first-seen order (epoch_header first in a
    // well-formed file), framing overhead accounted separately.
    std::vector<std::pair<std::uint32_t, KindTotal>> by_kind;
    std::uint64_t payload_total = 0;
    for (const auto& section : *sections) {
      auto it = std::find_if(by_kind.begin(), by_kind.end(),
                             [&](const auto& entry) {
                               return entry.first == section.kind;
                             });
      if (it == by_kind.end()) {
        by_kind.emplace_back(section.kind, KindTotal{});
        it = by_kind.end() - 1;
      }
      it->second.payload += section.payload_bytes;
      it->second.count += 1;
      payload_total += section.payload_bytes;
    }
    const std::uint64_t file_bytes = bytes->size();
    std::printf("  footprint: %s file, %zu section(s), %s payload\n",
                human_bytes(file_bytes).c_str(), sections->size(),
                human_bytes(payload_total).c_str());
    for (const auto& [kind, total] : by_kind) {
      const double share =
          file_bytes == 0 ? 0.0 : 100.0 * total.payload / file_bytes;
      std::printf("    %-14s %10s  %5.1f%%  (%llu section(s))\n",
                  std::string(snapshot::section_kind_name(kind)).c_str(),
                  human_bytes(total.payload).c_str(), share,
                  static_cast<unsigned long long>(total.count));
    }
    const std::uint64_t framing =
        file_bytes > payload_total ? file_bytes - payload_total : 0;
    std::printf("    %-14s %10s  %5.1f%%\n", "framing+magic",
                human_bytes(framing).c_str(),
                file_bytes == 0 ? 0.0 : 100.0 * framing / file_bytes);
  }
  return 0;
}

int run_validate(const char* path, int, char**) {
  const std::string problem = snapshot::validate_file(path);
  if (!problem.empty()) {
    std::fprintf(stderr, "snapctl: %s: %s\n", path, problem.c_str());
    return 1;
  }
  std::printf("%s: ok (%s)\n", path,
              std::string(snapshot::kSchemaName).c_str());
  return 0;
}

const snapshot::EpochRecord* find_epoch(const snapshot::SnapshotFile& file,
                                        std::uint32_t id) {
  for (const auto& epoch : file.epochs) {
    if (epoch.epoch_id == id) return &epoch;
  }
  return nullptr;
}

int run_diff(const char* path, int argc, char** argv) {
  const auto file = load(path);
  if (!file) return 1;
  print_stats(file->stats);
  if (file->epochs.size() < 2) {
    std::fprintf(stderr, "snapctl: %s has %zu epoch(s); diff needs two\n",
                 path, file->epochs.size());
    return 1;
  }
  const snapshot::EpochRecord* from = nullptr;
  const snapshot::EpochRecord* to = nullptr;
  if (argc >= 2) {
    from = find_epoch(*file, static_cast<std::uint32_t>(std::atoi(argv[0])));
    to = find_epoch(*file, static_cast<std::uint32_t>(std::atoi(argv[1])));
    if (!from || !to) {
      std::fprintf(stderr, "snapctl: no such epoch in %s\n", path);
      return 1;
    }
  } else {
    from = &file->epochs[file->epochs.size() - 2];
    to = &file->epochs.back();
  }

  const serve::EpochDiff diff = serve::diff_epochs(*from, *to);
  std::printf("epoch %u -> %u:\n", diff.from_epoch, diff.to_epoch);
  std::printf("  %-12s %8zu prefixes (%.0f volume)\n", "gained",
              diff.gained.size(), diff.gained_volume);
  std::printf("  %-12s %8zu prefixes (%.0f volume)\n", "lost",
              diff.lost.size(), diff.lost_volume);
  std::printf("  %-12s %8llu prefixes\n", "persisting",
              static_cast<unsigned long long>(diff.persisting));
  std::printf("  volume: %.0f -> %.0f\n", diff.volume_from, diff.volume_to);
  std::printf("  rank drift: mean %.2f positions (normalized %.4f)\n",
              diff.mean_rank_drift, diff.normalized_rank_drift);
  const std::size_t show = 5;
  for (std::size_t i = 0; i < diff.gained.size() && i < show; ++i) {
    std::printf("    + %s\n", diff.gained[i].to_string().c_str());
  }
  for (std::size_t i = 0; i < diff.lost.size() && i < show; ++i) {
    std::printf("    - %s\n", diff.lost[i].to_string().c_str());
  }
  return 0;
}

/// Parses a `key=value` workload file onto defaults; unknown keys are a
/// hard error (a typo'd knob silently running defaults is worse).
bool parse_workload_file(const char* path, serve::WorkloadOptions* options) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "snapctl: cannot read workload file %s\n", path);
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "snapctl: %s:%d: expected key=value\n", path,
                   lineno);
      return false;
    }
    const std::string key = line.substr(first, eq - first);
    const double value = std::atof(line.c_str() + eq + 1);
    if (key == "users") {
      options->users = static_cast<std::size_t>(value);
    } else if (key == "queries") {
      options->queries = static_cast<std::size_t>(value);
    } else if (key == "batch") {
      options->batch = static_cast<std::size_t>(value);
    } else if (key == "user_zipf") {
      options->user_zipf = value;
    } else if (key == "prefix_zipf") {
      options->prefix_zipf = value;
    } else if (key == "miss_fraction") {
      options->miss_fraction = value;
    } else if (key == "burst_amplitude") {
      options->burst_amplitude = value;
    } else if (key == "batches_per_day") {
      options->batches_per_day = value;
    } else if (key == "burst_peak_hour") {
      options->burst_peak_hour = value;
    } else if (key == "seed") {
      options->seed = static_cast<std::uint64_t>(value);
    } else if (key == "reader_threads") {
      options->reader_threads = static_cast<int>(value);
    } else if (key == "publish_pause_us") {
      options->publish_pause_us = value;
    } else if (key == "publish_duty") {
      options->publish_duty = value;
    } else {
      std::fprintf(stderr, "snapctl: %s:%d: unknown workload key '%s'\n",
                   path, lineno, key.c_str());
      return false;
    }
  }
  return true;
}

void print_phase(const serve::PhaseStats& phase) {
  std::printf("  %-8s %12llu %10llu %10.3f %14.0f %9.1f %9.1f %9.1f\n",
              phase.name.c_str(),
              static_cast<unsigned long long>(phase.queries),
              static_cast<unsigned long long>(phase.batches), phase.seconds,
              phase.qps, phase.latency.p50_us, phase.latency.p99_us,
              phase.latency.p999_us);
}

int run_serve(const char* path, int argc, char** argv) {
  const auto file = load(path);
  if (!file) return 1;
  print_stats(file->stats);
  if (file->epochs.empty()) {
    std::fprintf(stderr, "snapctl: %s has no epochs to serve\n", path);
    return 1;
  }

  serve::WorkloadOptions options;
  options.queries = 1 << 20;
  options.users = 1 << 18;
  if (argc >= 1 && !parse_workload_file(argv[0], &options)) return 2;

  // Publish epoch-by-epoch in chain order — the same rolling sequence of
  // swaps a live deployment would apply — keeping the window at the
  // chain length so churn re-publishes age the oldest epoch out.
  serve::ServiceOptions service_options;
  service_options.max_epochs = file->epochs.size();
  serve::Service service(service_options);
  for (const auto& epoch : file->epochs) service.publish(epoch);
  const serve::SnapshotHandle handle = service.acquire();
  std::printf("%s: serving %zu epoch(s), version %llu, %zu prefixes, "
              "%zu ASes\n",
              path, file->epochs.size(),
              static_cast<unsigned long long>(handle->version()),
              handle->index().prefix_count(),
              handle->index().as_aggregates().size());

  const serve::WorkloadDriver driver(
      options, std::span<const snapshot::EpochRecord>(file->epochs));
  std::printf("workload: %zu queries over %zu users, %zu batches "
              "(zipf %.2f, miss %.2f)\n",
              driver.query_count(), options.users, driver.batch_count(),
              options.user_zipf, options.miss_fraction);

  const serve::WorkloadReport report = driver.run_under_churn(
      service, std::span<const snapshot::EpochRecord>(file->epochs));
  std::printf("  %-8s %12s %10s %10s %14s %9s %9s %9s\n", "phase", "queries",
              "batches", "seconds", "qps", "p50_us", "p99_us", "p999_us");
  print_phase(report.steady);
  print_phase(report.churn);
  std::printf("  churn publishes: %llu, churn/steady QPS ratio: %.3f\n",
              static_cast<unsigned long long>(report.churn.publishes),
              report.churn_ratio);
  return 0;
}

/// Reads `key=` from key=value args; returns fallback when absent.
double arg_value(int argc, char** argv, const char* key, double fallback) {
  const std::string prefix = std::string(key) + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

bool arg_is(int argc, char** argv, const char* key, const char* value) {
  const std::string want = std::string(key) + "=" + value;
  for (int i = 0; i < argc; ++i) {
    if (want == argv[i]) return true;
  }
  return false;
}

int run_netserve(const char* path, int argc, char** argv) {
  const auto file = load(path);
  if (!file) return 1;
  print_stats(file->stats);
  if (file->epochs.empty()) {
    std::fprintf(stderr, "snapctl: %s has no epochs to serve\n", path);
    return 1;
  }
  const auto queries_n =
      static_cast<std::size_t>(arg_value(argc, argv, "queries", 65536));
  const auto batch =
      static_cast<std::size_t>(arg_value(argc, argv, "batch", 8));
  const double loss = arg_value(argc, argv, "loss", 0);
  const int attempts = static_cast<int>(arg_value(argc, argv, "attempts", 3));
  const bool tcp = arg_is(argc, argv, "transport", "tcp");

  serve::Service service;
  service.publish(std::span<const snapshot::EpochRecord>(file->epochs));
  const serve::SnapshotHandle handle = service.acquire();
  std::printf("%s: serving %zu epoch(s), %zu prefixes over the wire "
              "(%s, batch %zu, loss %.2f, attempts %d)\n",
              path, file->epochs.size(), handle->index().prefix_count(),
              tcp ? "tcp" : "udp", batch, loss, attempts);

  netsim::MessageBus bus;
  if (loss > 0) {
    netsim::FaultConfig faults;
    faults.loss_probability = loss;
    bus.set_faults(std::move(faults));
  }
  const auto server_addr = net::Ipv4Addr(0x0A000001);  // 10.0.0.1
  const auto client_addr = net::Ipv4Addr(0x0A000002);  // 10.0.0.2
  netsvc::Server server(bus, service, server_addr);
  netsvc::ClientOptions client_options;
  client_options.batch_per_message = batch;
  client_options.retry.max_attempts = attempts;
  if (tcp) client_options.transport = googledns::Transport::kTcp;
  netsvc::Client client(bus, client_addr, server_addr, client_options);

  net::Rng rng(0x5EC7);
  std::vector<net::Ipv4Addr> queries;
  queries.reserve(queries_n);
  for (std::size_t i = 0; i < queries_n; ++i) {
    queries.push_back(net::Ipv4Addr(static_cast<std::uint32_t>(rng())));
  }
  const auto wire_results = client.lookup_many(queries);
  const auto direct = handle->lookup_many(queries, 1);

  // Parity: every chunk the client answered must match the direct path.
  // With faults, exhausted chunks yield miss results — count, don't fail.
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (wire_results[i] != direct[i]) ++mismatched;
  }
  const auto& stats = client.stats();
  const std::size_t failed_addresses =
      static_cast<std::size_t>(stats.failed_chunks) * batch;
  std::printf("  %zu addresses in %zu-address chunks: %llu responses, "
              "%llu retries, %llu timeouts, %llu failed chunk(s), "
              "breaker_skipped %llu\n",
              queries.size(), batch,
              static_cast<unsigned long long>(stats.responses),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.timeouts),
              static_cast<unsigned long long>(stats.failed_chunks),
              static_cast<unsigned long long>(stats.breaker_skipped));
  std::printf("  transports: %llu udp / %llu tcp queries, "
              "%llu truncated seen, %llu escalation(s)\n",
              static_cast<unsigned long long>(stats.udp_queries),
              static_cast<unsigned long long>(stats.tcp_queries),
              static_cast<unsigned long long>(stats.truncated_seen),
              static_cast<unsigned long long>(stats.escalations));
  std::printf("  virtual clock at %.3f s; server: %llu udp + %llu tcp "
              "requests, %llu lookups, %llu window stall(s)\n",
              bus.now(),
              static_cast<unsigned long long>(server.stats().udp_requests),
              static_cast<unsigned long long>(server.stats().tcp_requests),
              static_cast<unsigned long long>(server.stats().lookups),
              static_cast<unsigned long long>(server.stats().window_stalls));
  if (mismatched > failed_addresses) {
    std::fprintf(stderr,
                 "snapctl: netserve parity FAILED: %zu mismatched "
                 "addresses exceed the %zu in failed chunks\n",
                 mismatched, failed_addresses);
    return 1;
  }
  std::printf("  wire parity ok (%zu/%zu addresses byte-identical to "
              "direct lookups)\n",
              queries.size() - mismatched, queries.size());
  return 0;
}

/// One row per subcommand; main() is just a table walk, so adding a
/// command is one entry here plus its run_* function.
struct Command {
  const char* name;
  const char* usage;
  // Receives the snapshot path plus any arguments after it.
  int (*run)(const char* path, int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"inspect", "snapctl inspect  <file.snap>", run_inspect},
    {"validate", "snapctl validate <file.snap>", run_validate},
    {"diff", "snapctl diff     <file.snap> [from-epoch to-epoch]", run_diff},
    {"serve", "snapctl serve    <file.snap> [workload.conf]", run_serve},
    {"netserve",
     "snapctl netserve <file.snap> [transport=udp|tcp] [queries=N] "
     "[batch=N] [loss=P] [attempts=N]",
     run_netserve},
};

int usage() {
  std::fprintf(stderr, "usage:\n");
  for (const Command& command : kCommands) {
    std::fprintf(stderr, "  %s\n", command.usage);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  for (const Command& command : kCommands) {
    if (std::strcmp(argv[1], command.name) == 0) {
      return command.run(argv[2], argc - 3, argv + 3);
    }
  }
  return usage();
}
