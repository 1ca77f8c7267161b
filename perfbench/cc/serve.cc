// `serve`: a chain of multi-million-prefix epochs loaded from a snapshot
// file into `serve::Service`, then closed-loop readers issuing
// `lookup_many` batches through `acquire` handles while a publisher
// thread publishes further epochs under a bounded `max_epochs` window.

#include <atomic>
#include <compare>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/serve/service.h"
#include "core/snapshot/snapshot.h"

namespace perfbench {

namespace serve = netclients::core::serve;
namespace snapshot = netclients::core::snapshot;

namespace {

constexpr std::size_t kPrefixes = 2'000'000;
constexpr std::uint32_t kSnapshotEpochs = 4;  // epochs 0-3 in the file
constexpr std::size_t kWindow = 3;            // Service max_epochs
constexpr std::size_t kBatch = 8192;          // addresses per lookup_many
constexpr std::size_t kStream = 64 * kBatch;  // addresses per reader stream
// Publishes per churn phase at least: publish time is reported as their
// median, and one publish takes about 3 s at this index size.
constexpr std::size_t kMinPublishes = 5;

/// What a reader saw in one batch: enough to recompute the model's
/// answers after the phase, so no check work runs beside the readers.
struct BatchRecord {
  std::uint32_t offset = 0;  // into the reader's stream
  std::uint32_t latest = 0;  // the handle's epoch window
  std::uint32_t count = 0;
  std::uint64_t digest = 0;  // answer_digest of the answers
};

struct ReaderStats {
  std::uint64_t addresses = 0;
  std::vector<BatchRecord> batches;
  std::vector<double> batch_ms;
};

struct Phase {
  std::vector<ReaderStats> readers;
  std::vector<double> publish_s;
  double wall_s = 0;  // readers' start to their end

  std::uint64_t batches() const {
    std::uint64_t total = 0;
    for (const ReaderStats& r : readers) total += r.batches.size();
    return total;
  }
  /// Addresses answered per second of the phase, all readers together.
  double lookups_per_s() const {
    std::uint64_t total = 0;
    for (const ReaderStats& r : readers) total += r.addresses;
    return wall_s > 0 ? static_cast<double>(total) / wall_s : 0;
  }
  std::vector<double> batch_ms() const {
    std::vector<double> all;
    for (const ReaderStats& r : readers) {
      all.insert(all.end(), r.batch_ms.begin(), r.batch_ms.end());
    }
    return all;
  }
};

/// Closed-loop readers for `seconds`, with a publisher beside them when
/// `next_epoch` is set. The publisher stops at the deadline once it has
/// made kMinPublishes publishes (finishing the publish in hand); readers
/// stop once it has, so every publish runs under read load.
Phase run_phase(serve::Service& service, const Universe& u,
                const std::vector<std::vector<net::Ipv4Addr>>& streams,
                double seconds, std::optional<std::uint32_t> next_epoch,
                Tracer& tracer, const char* name) {
  Phase phase;
  phase.readers.resize(streams.size());
  Tracer::Scope span(tracer, name, static_cast<int>(streams.size()) + 1);
  const int parent = span.id();
  std::atomic<bool> stop_readers{false};
  std::atomic<bool> stop_publisher{false};
  std::vector<std::thread> threads;
  const double start = now_s();
  for (std::size_t i = 0; i < streams.size(); ++i) {
    threads.emplace_back([&, i] {
      ReaderStats& st = phase.readers[i];
      st.batches.reserve(1 << 16);
      st.batch_ms.reserve(1 << 16);
      const std::vector<net::Ipv4Addr>& stream = streams[i];
      std::vector<serve::LookupResult> out(kBatch);
      std::size_t offset = 0;
      while (!stop_readers.load(std::memory_order_relaxed)) {
        const std::span<const net::Ipv4Addr> batch(stream.data() + offset,
                                                   kBatch);
        BatchRecord rec;
        rec.offset = static_cast<std::uint32_t>(offset);
        offset = (offset + kBatch) % stream.size();
        const double t0 = now_s();
        {
          Tracer::Scope b(tracer, "serve.lookup_batch", 1, parent);
          serve::SnapshotHandle handle = service.acquire();
          handle->lookup_many(batch, out.data(), 1);
          rec.latest = handle->latest_epoch();
          rec.count = static_cast<std::uint32_t>(handle->epoch_count());
          b.items(kBatch);
        }
        st.batch_ms.push_back((now_s() - t0) * 1e3);
        st.addresses += kBatch;
        {
          Tracer::Scope d(tracer, "check.batch_digest", 1, parent);
          rec.digest = answer_digest(out);
        }
        st.batches.push_back(rec);
      }
    });
  }
  std::thread publisher;
  if (next_epoch) {
    publisher = std::thread([&] {
      std::uint32_t epoch = *next_epoch;
      while (phase.publish_s.size() < kMinPublishes ||
             !stop_publisher.load(std::memory_order_relaxed)) {
        snapshot::EpochRecord record = make_epoch_record(u, epoch++);
        const double t0 = now_s();
        {
          Tracer::Scope p(tracer, "serve.publish", 1, parent);
          p.items(record.prefixes.size());
          service.publish(std::move(record));
        }
        phase.publish_s.push_back(now_s() - t0);
      }
    });
  }
  const double deadline = start + seconds;
  while (now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop_publisher = true;
  if (publisher.joinable()) publisher.join();
  stop_readers = true;
  for (std::thread& t : threads) t.join();
  phase.wall_s = now_s() - start;
  return phase;
}

/// Batches of `phase` whose answers differ from the model of their
/// handle's epoch window. Each distinct (reader, offset, window) is
/// recomputed once, on `threads` threads.
std::uint64_t count_bad_batches(
    const Universe& u,
    const std::vector<std::vector<net::Ipv4Addr>>& streams,
    const Phase& phase, int threads) {
  struct Key {
    std::size_t reader;
    std::uint32_t offset, latest, count;
    auto operator<=>(const Key&) const = default;
  };
  std::map<Key, std::uint64_t> expected;
  for (std::size_t i = 0; i < phase.readers.size(); ++i) {
    for (const BatchRecord& b : phase.readers[i].batches) {
      expected.emplace(Key{i, b.offset, b.latest, b.count}, 0);
    }
  }
  std::vector<std::pair<const Key, std::uint64_t>*> todo;
  for (auto& entry : expected) todo.push_back(&entry);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t j = next++; j < todo.size(); j = next++) {
        const Key& k = todo[j]->first;
        todo[j]->second = model_digest(
            u, std::span(streams[k.reader]).subspan(k.offset, kBatch),
            k.latest, k.count);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < phase.readers.size(); ++i) {
    for (const BatchRecord& b : phase.readers[i].batches) {
      if (expected.at(Key{i, b.offset, b.latest, b.count}) != b.digest) ++bad;
    }
  }
  return bad;
}

}  // namespace

double acquire_ns(const serve::Service& service, Tracer& tracer) {
  constexpr int kLoops = 2'000'000;
  Tracer::Scope span(tracer, "serve.acquire_loop");
  span.items(kLoops);
  std::uint64_t versions = 0;
  const double t0 = now_s();
  for (int i = 0; i < kLoops; ++i) versions += service.acquire()->version();
  const double dt = now_s() - t0;
  return versions > 0 ? dt * 1e9 / kLoops : 0;
}

Result run_serve(const Options& o, Tracer& tracer) {
  Result r;
  const std::size_t readers =
      static_cast<std::size_t>(std::max(1, o.threads - 1));
  const std::string path = o.work_dir + "/serve.snap";
  Universe u;
  std::vector<std::vector<net::Ipv4Addr>> streams;
  const double setup_s = timed_setups([&] {
    u = {};  // the last set-up's inputs are not held during this one
    streams.clear();
    std::vector<snapshot::EpochRecord> chain;
    {
      Tracer::Scope span(tracer, "bench.generate_epochs");
      u = make_universe(derive(o.seed, 0x5345525645u), kPrefixes);  // "SERVE"
      for (std::uint32_t e = 0; e < kSnapshotEpochs; ++e) {
        chain.push_back(make_epoch_record(u, e));
      }
      span.items(u.size());
    }
    {
      Tracer::Scope span(tracer, "snapshot.encode");
      const std::string bytes = snapshot::encode(chain);
      std::ofstream(path, std::ios::binary)
          .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      span.bytes(bytes.size());
    }
    chain = {};
    Tracer::Scope span(tracer, "bench.generate_queries");
    for (std::size_t i = 0; i < readers; ++i) {
      streams.push_back(make_queries(u, query_mix(), kStream, i));
    }
    span.items(readers * kStream);
  });
  r.setup_rss_mb = peak_rss_mb();

  serve::ServiceOptions service_options;
  service_options.max_epochs = kWindow;
  serve::Service service(service_options);
  double load_s = 0;
  double first_publish_s = 0;
  double publish_rss_mb = 0;  // peak at the first publish, before checks
  {
    // Snapshot bytes to the first answer served.
    const double t0 = now_s();
    Tracer::Scope load(tracer, "serve.load");
    std::optional<snapshot::SnapshotFile> decoded;
    std::string invalid;
    {
      std::ifstream in(path, std::ios::binary);
      const std::string bytes{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
      {
        Tracer::Scope span(tracer, "snapshot.decode");
        decoded = snapshot::decode(bytes);
        span.bytes(bytes.size());
      }
      Tracer::Scope span(tracer, "snapshot.validate");
      invalid = snapshot::validate(bytes);
      span.bytes(bytes.size());
    }
    if (!decoded) {
      r.problems.push_back("load: snapshot magic not recognised");
      ++r.failed;
      return r;
    }
    {
      const double p0 = now_s();
      Tracer::Scope span(tracer, "serve.first_publish");
      service.publish(std::span<const snapshot::EpochRecord>(decoded->epochs));
      first_publish_s = now_s() - p0;
      ++r.attempted;
    }
    publish_rss_mb = peak_rss_mb();
    const net::Ipv4Addr probe = streams[0][0];
    const serve::SnapshotHandle handle = service.acquire();
    const serve::LookupResult first = handle->lookup(probe);
    load_s = now_s() - t0;
    // The decoded chain against the generator, one epoch regenerated at
    // a time, then dropped: the service holds its own copy.
    bool same = decoded->epochs.size() == kSnapshotEpochs &&
                decoded->stats.sections_skipped == 0;
    for (std::uint32_t e = 0; same && e < kSnapshotEpochs; ++e) {
      same = decoded->epochs[e] == make_epoch_record(u, e);
    }
    decoded.reset();
    if (!same) r.problems.push_back("load: decode(encode(chain)) != chain");
    if (!invalid.empty()) r.problems.push_back("load: " + invalid);
    if (handle->latest_epoch() != kSnapshotEpochs - 1 ||
        handle->epoch_count() != kWindow) {
      r.problems.push_back("load: handle does not serve the last " +
                           std::to_string(kWindow) + " epochs");
    }
    if (!(first == expected_answer(u, probe, handle->latest_epoch(),
                                   handle->epoch_count()))) {
      r.problems.push_back("load: first answer differs from the model");
    }
  }

  const double after_checks_rss_mb = peak_rss_mb();
  Phase steady;
  if (tracer.enabled()) {
    steady = run_phase(service, u, streams, o.seconds / 2, std::nullopt,
                       tracer, "serve.steady");
  }
  const Phase churn = run_phase(service, u, streams, o.seconds,
                                kSnapshotEpochs, tracer, "serve.churn");
  const Phase* phases[] = {&steady, &churn};
  for (const Phase* phase : phases) {
    r.attempted += phase->batches() + phase->publish_s.size();
    std::uint64_t bad = 0;
    {
      Tracer::Scope span(tracer, "check.answers", o.threads);
      span.items(phase->batches() * kBatch);
      bad = count_bad_batches(u, streams, *phase, o.threads);
    }
    if (bad) {
      r.problems.push_back(std::to_string(bad) + " of " +
                           std::to_string(phase->batches()) +
                           " batches differ from the model of the handle's "
                           "epoch window");
    }
  }

  r.e2e["setup_s"] = setup_s;
  r.e2e["op_s"] = median(churn.publish_s);
  r.e2e["items_per_s"] = churn.lookups_per_s();
  if (tracer.enabled()) {
    const std::vector<double> batches = churn.batch_ms();
    r.layers["serve.load_s"] = load_s;
    r.layers["serve.first_publish_s"] = first_publish_s;
    r.layers["serve.steady_lookups_per_s"] = steady.lookups_per_s();
    r.layers["serve.churn_ratio"] =
        steady.lookups_per_s() > 0
            ? churn.lookups_per_s() / steady.lookups_per_s()
            : 0;
    r.layers["serve.batch_p50_ms"] = quantile(batches, 0.5);
    r.layers["serve.batch_p99_ms"] = quantile(batches, 0.99);
    r.layers["serve.acquire_ns"] = acquire_ns(service, tracer);
    std::printf("serve: %zu batches of %zu under churn, %zu publishes, "
                "load %.3f s; peak RSS %.1f MiB after the first publish, "
                "%.1f MiB after the load checks\n",
                batches.size(), kBatch, churn.publish_s.size(), load_s,
                publish_rss_mb, after_checks_rss_mb);
  }
  return r;
}

}  // namespace perfbench
