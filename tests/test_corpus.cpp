// Sharded-corpus + work-stealing suite (labels: determinism, tsan): the
// corpus scan must be byte-identical to the serial reference
// (tests/scan_reference.h) at every REPRO_THREADS and every member split —
// determinism comes from the canonical (file, chunk) merge order, never
// from steal interleaving. Also covers the RecordChunker edge cases the
// corpus partition leans on (boundary exactly at EOF, empty members, split
// invariance), the steal_map scheduler itself (index-ordered results,
// exception propagation, telemetry, completion under churn), and replays
// the fuzz_corpus seed corpus.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/chromium/chromium.h"
#include "core/exec/exec.h"
#include "core/exec/steal.h"
#include "net/crc32.h"
#include "roots/corpus.h"
#include "roots/root_server.h"
#include "roots/trace.h"
#include "roots/trace_view.h"
#include "scan_reference.h"
#include "sim/ditl.h"
#include "sim/world.h"

namespace netclients::core {
namespace {

constexpr double kSampleRate = 1.0 / 4;

// One sampled DITL capture shared by every case in this (batch) binary:
// the world build dominates, so generate once.
struct CorpusFixture {
  std::vector<roots::TraceRecord> records;
  ChromiumResult reference;

  CorpusFixture() {
    sim::WorldConfig config;
    config.scale = 1.0 / 8192;
    const sim::World world = sim::World::generate(config);
    const roots::RootSystem roots = roots::RootSystem::ditl_2020(config.seed);
    sim::DitlOptions ditl;
    ditl.sample_rate = kSampleRate;
    sim::generate_ditl(world, roots, ditl,
                       [&](const roots::TraceRecord& rec) {
                         records.push_back(rec);
                       });
    ChromiumOptions options;
    options.sample_rate = kSampleRate;
    reference = reference_scan(records, options);
  }
};

const CorpusFixture& fixture() {
  static CorpusFixture* f = new CorpusFixture;
  return *f;
}

ChromiumOptions scan_options(int threads, std::size_t chunk_records = 0) {
  ChromiumOptions options;
  options.sample_rate = kSampleRate;
  options.threads = threads;
  if (chunk_records > 0) options.chunk_records = chunk_records;
  return options;
}

void expect_identical(const ChromiumResult& got, const ChromiumResult& want,
                      const std::string& what) {
  EXPECT_TRUE(same_scan(got, want)) << what;
}

// ---------------------------------------------------------- steal_map

TEST(StealMap, ResultsInIndexOrderAtEveryThreadCount) {
  for (const int threads : {1, 2, 4, 8}) {
    const auto results = exec::steal_map(
        std::size_t{1000}, threads,
        [](std::size_t i) { return i * i; });
    ASSERT_EQ(results.size(), 1000u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * i);
    }
  }
}

TEST(StealMap, EmptyInput) {
  exec::StealTelemetry telemetry;
  const auto results = exec::steal_map(
      std::size_t{0}, 4, [](std::size_t i) { return i; }, &telemetry);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(telemetry.tasks, 0u);
  EXPECT_EQ(telemetry.stolen_tasks, 0u);
}

TEST(StealMap, EveryTaskRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  exec::steal_map(hits.size(), 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return 0;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(StealMap, TelemetryCountsTasksAndWorkers) {
  exec::StealTelemetry telemetry;
  exec::steal_map(std::size_t{64}, 2,
                  [](std::size_t i) { return i; }, &telemetry);
  EXPECT_EQ(telemetry.tasks, 64u);
  EXPECT_EQ(telemetry.workers, 2u);
  // Steal counts are scheduling noise — only their consistency is
  // asserted: stolen tasks cannot exceed tasks, nor steals attempts.
  EXPECT_LE(telemetry.stolen_tasks, telemetry.tasks);
  EXPECT_LE(telemetry.steals, telemetry.attempts + telemetry.steals);
}

TEST(StealMap, SerialWhenSingleThread) {
  exec::StealTelemetry telemetry;
  exec::steal_map(std::size_t{32}, 1,
                  [](std::size_t i) { return i; }, &telemetry);
  EXPECT_EQ(telemetry.workers, 1u);
  EXPECT_EQ(telemetry.steals, 0u);
  EXPECT_EQ(telemetry.stolen_tasks, 0u);
}

TEST(StealMap, ExceptionPropagates) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        exec::steal_map(std::size_t{100}, threads,
                        [](std::size_t i) -> int {
                          if (i == 57) throw std::runtime_error("boom");
                          return 0;
                        }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

// ------------------------------------------------------ RecordChunker

TEST(RecordChunker, BoundaryExactlyAtEof) {
  // 12 records of 10 bytes, 4 per chunk: the last chunk's record count is
  // full and its end offset is exactly the payload end.
  exec::RecordChunker chunker(4);
  for (int i = 0; i < 12; ++i) chunker.note(i * 10);
  const auto chunks = chunker.finish(120);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks.back().records, 4u);
  EXPECT_EQ(chunks.back().end, 120u);
  EXPECT_EQ(chunks.back().first_record, 8u);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].end, chunks[i + 1].begin);
  }
}

TEST(RecordChunker, EmptyStreamYieldsNoChunks) {
  exec::RecordChunker chunker(4);
  EXPECT_TRUE(chunker.finish(0).empty());
  EXPECT_EQ(chunker.records(), 0u);
}

TEST(RecordChunker, ShortFinalChunk) {
  exec::RecordChunker chunker(5);
  for (int i = 0; i < 7; ++i) chunker.note(i * 3);
  const auto chunks = chunker.finish(21);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].records, 5u);
  EXPECT_EQ(chunks[1].records, 2u);
  EXPECT_EQ(chunks[1].end, 21u);
}

// ------------------------------------------------------------ manifest

TEST(CorpusManifest, EncodeDecodeRoundTrip) {
  roots::CorpusManifest manifest;
  manifest.members.push_back(
      {"a.000.ncd1", roots::CorpusFormat::kNcd1, 100, 2048, 0xDEADBEEF});
  manifest.members.push_back(
      {"a.001.ncp1", roots::CorpusFormat::kNcp1, 0, 12, 0x00000001});
  const auto decoded = roots::CorpusManifest::decode(manifest.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->members, manifest.members);
  EXPECT_EQ(decoded->total_records(), 100u);
  EXPECT_EQ(decoded->total_bytes(), 2060u);
}

TEST(CorpusManifest, RejectsDamage) {
  EXPECT_FALSE(roots::CorpusManifest::decode("").has_value());
  EXPECT_FALSE(roots::CorpusManifest::decode("NCCORPUS v2\n").has_value());
  EXPECT_FALSE(roots::CorpusManifest::decode(
                   "NCCORPUS v1\nfile.ncd1\tncd1\t10\n")
                   .has_value());  // missing fields
  EXPECT_FALSE(roots::CorpusManifest::decode(
                   "NCCORPUS v1\nfile.ncd1\tweird\t10\t20\t00000000\n")
                   .has_value());  // bad format token
  EXPECT_FALSE(roots::CorpusManifest::decode(
                   "NCCORPUS v1\nfile.ncd1\tncd1\tten\t20\t00000000\n")
                   .has_value());  // non-numeric
}

// ---------------------------------------------------------- the corpus

TEST(Corpus, WriteCorpusSplitsNearEqually) {
  const auto& f = fixture();
  const std::string manifest_path = "corpus_split.manifest";
  ASSERT_TRUE(roots::write_corpus(manifest_path, f.records, 4));
  const auto manifest = roots::CorpusManifest::read(manifest_path);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->members.size(), 4u);
  EXPECT_EQ(manifest->total_records(), f.records.size());
  const std::uint64_t per = f.records.size() / 4;
  for (const auto& member : manifest->members) {
    EXPECT_NEAR(static_cast<double>(member.records),
                static_cast<double>(per), 1.0);
  }
}

TEST(Corpus, ParityAcrossThreadsAndSplits) {
  const auto& f = fixture();
  // Different member splits of the same records must all scan to the
  // reference, at every thread count — the partition invariance the
  // work-stealing merge order guarantees.
  for (const std::size_t files : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4}}) {
    const std::string manifest_path =
        "corpus_parity_" + std::to_string(files) + ".manifest";
    ASSERT_TRUE(roots::write_corpus(manifest_path, f.records, files));
    const auto corpus = roots::CorpusView::open(manifest_path);
    ASSERT_TRUE(corpus.has_value());
    ASSERT_EQ(corpus->stats().members_skipped, 0u);
    for (const int threads : {1, 2, 8}) {
      const auto result =
          ChromiumCounter(scan_options(threads)).process_corpus(*corpus);
      expect_identical(result, f.reference,
                       "files=" + std::to_string(files) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST(Corpus, ParityWithSmallChunksForcesManyTasks) {
  const auto& f = fixture();
  const std::string manifest_path = "corpus_chunks.manifest";
  ASSERT_TRUE(roots::write_corpus(manifest_path, f.records, 3));
  const auto corpus = roots::CorpusView::open(manifest_path);
  ASSERT_TRUE(corpus.has_value());
  exec::StealTelemetry telemetry;
  const auto result =
      ChromiumCounter(scan_options(4, 64))
          .process_corpus(*corpus, &telemetry);
  expect_identical(result, f.reference, "chunk_records=64");
  // Tiny chunks: the task count must reflect the partition, not the
  // worker count (both passes run the same task set).
  EXPECT_GE(telemetry.tasks, 2 * f.records.size() / 64);
}

TEST(Corpus, EmptyMemberInMultiFileSet) {
  const auto& f = fixture();
  // Hand-build a corpus whose middle member is a valid, zero-record NCD1
  // file: the partition must yield no chunks for it and the scan must
  // still be byte-identical to the reference.
  const std::size_t half = f.records.size() / 2;
  const std::vector<roots::TraceRecord> first(f.records.begin(),
                                              f.records.begin() + half);
  const std::vector<roots::TraceRecord> second(f.records.begin() + half,
                                               f.records.end());
  ASSERT_TRUE(roots::TraceFile::write("corpus_empty.000.ncd1", first));
  ASSERT_TRUE(roots::TraceFile::write("corpus_empty.001.ncd1", {}));
  ASSERT_TRUE(roots::TraceFile::write("corpus_empty.002.ncd1", second));

  roots::CorpusManifest manifest;
  for (const char* name : {"corpus_empty.000.ncd1", "corpus_empty.001.ncd1",
                           "corpus_empty.002.ncd1"}) {
    std::ifstream in(name, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    roots::CorpusMember member;
    member.file = name;
    member.records = name == std::string("corpus_empty.001.ncd1")
                         ? 0
                         : (name == std::string("corpus_empty.000.ncd1")
                                ? first.size()
                                : second.size());
    member.bytes = bytes.size();
    member.crc = net::crc32(bytes);
    manifest.members.push_back(std::move(member));
  }
  ASSERT_TRUE(manifest.write("corpus_empty.manifest"));

  const auto corpus = roots::CorpusView::open("corpus_empty.manifest");
  ASSERT_TRUE(corpus.has_value());
  EXPECT_EQ(corpus->stats().members_opened, 3u);
  for (const int threads : {1, 4}) {
    const auto result =
        ChromiumCounter(scan_options(threads)).process_corpus(*corpus);
    expect_identical(result, f.reference, "empty middle member");
  }
}

TEST(Corpus, MissingMemberIsSkippedAndCounted) {
  const auto& f = fixture();
  const std::string manifest_path = "corpus_missing.manifest";
  ASSERT_TRUE(roots::write_corpus(manifest_path, f.records, 3));
  auto manifest = roots::CorpusManifest::read(manifest_path);
  ASSERT_TRUE(manifest.has_value());
  std::remove(manifest->members[1].file.c_str());

  const auto corpus = roots::CorpusView::open(manifest_path);
  ASSERT_TRUE(corpus.has_value());
  EXPECT_EQ(corpus->stats().members_opened, 2u);
  EXPECT_EQ(corpus->stats().members_skipped, 1u);
  EXPECT_EQ(corpus->stats().records_skipped, manifest->members[1].records);

  const auto result =
      ChromiumCounter(scan_options(2)).process_corpus(*corpus);
  // The skipped member's declared records land in records_skipped; the
  // readable members still scan normally.
  EXPECT_EQ(result.records_skipped, manifest->members[1].records);
  EXPECT_EQ(result.records_scanned,
            f.records.size() - manifest->members[1].records);
}

TEST(Corpus, CrcVerificationCatchesCorruption) {
  const auto& f = fixture();
  const std::string manifest_path = "corpus_crc.manifest";
  ASSERT_TRUE(roots::write_corpus(manifest_path, f.records, 2));
  const auto manifest = roots::CorpusManifest::read(manifest_path);
  ASSERT_TRUE(manifest.has_value());
  {
    // Flip one payload byte mid-file.
    std::fstream file(manifest->members[0].file,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(static_cast<std::streamoff>(manifest->members[0].bytes / 2));
    const char byte = static_cast<char>(0xA5);
    file.write(&byte, 1);
  }
  // Tolerant open (no CRC check) still opens both members.
  const auto lax = roots::CorpusView::open(manifest_path);
  ASSERT_TRUE(lax.has_value());
  EXPECT_EQ(lax->stats().members_opened, 2u);
  // Strict open skips the damaged member and counts the mismatch.
  roots::CorpusView::OpenOptions strict;
  strict.verify_crc = true;
  const auto checked = roots::CorpusView::open(manifest_path, strict);
  ASSERT_TRUE(checked.has_value());
  EXPECT_EQ(checked->stats().crc_mismatches, 1u);
  EXPECT_EQ(checked->stats().members_skipped, 1u);
  EXPECT_EQ(checked->stats().members_opened, 1u);
}

TEST(Corpus, MixedFormatMembersScanIdentically) {
  const auto& f = fixture();
  // One NCD1 member plus one NCP1 member over the same split: the corpus
  // scan dispatches per member format and must still match the reference.
  const std::size_t half = f.records.size() / 2;
  const std::vector<roots::TraceRecord> first(f.records.begin(),
                                              f.records.begin() + half);
  const std::vector<roots::TraceRecord> second(f.records.begin() + half,
                                               f.records.end());
  roots::CorpusWriter::Options ncd1;
  roots::CorpusWriter writer_a("corpus_mixed_a.manifest", ncd1);
  for (const auto& rec : first) writer_a.add(rec);
  ASSERT_TRUE(writer_a.finish());
  roots::CorpusWriter::Options ncp1;
  ncp1.format = roots::CorpusFormat::kNcp1;
  roots::CorpusWriter writer_b("corpus_mixed_b.manifest", ncp1);
  for (const auto& rec : second) writer_b.add(rec);
  ASSERT_TRUE(writer_b.finish());

  roots::CorpusManifest merged;
  for (const char* path :
       {"corpus_mixed_a.manifest", "corpus_mixed_b.manifest"}) {
    const auto part = roots::CorpusManifest::read(path);
    ASSERT_TRUE(part.has_value());
    for (const auto& member : part->members) {
      merged.members.push_back(member);
    }
  }
  ASSERT_TRUE(merged.write("corpus_mixed.manifest"));

  const auto corpus = roots::CorpusView::open("corpus_mixed.manifest");
  ASSERT_TRUE(corpus.has_value());
  ASSERT_EQ(corpus->stats().members_opened, 2u);
  for (const int threads : {1, 4}) {
    const auto result =
        ChromiumCounter(scan_options(threads)).process_corpus(*corpus);
    expect_identical(result, f.reference, "mixed ncd1+ncp1");
  }
}

TEST(Corpus, InMemoryTraceScansLikeItsCorpus) {
  // process(vector) encodes the records into a one-member in-memory
  // corpus: the same scan, the same answer.
  const auto& f = fixture();
  for (const int threads : {1, 8}) {
    expect_identical(ChromiumCounter(scan_options(threads)).process(f.records),
                     f.reference, "process(vector)");
  }
}

TEST(Corpus, FuzzSeedCorpusReplays) {
  // Every checked-in fuzz_corpus seed, replayed with the harness's
  // properties: the first byte picks the member format, the rest is the
  // member image; a scan accounts for every declared record.
  const std::filesystem::path dir = NETCLIENTS_DITL_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t seeds = 0, scanned = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++seeds;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in), {}};
    (void)roots::CorpusManifest::decode(bytes);
    if (bytes.empty()) continue;
    const auto corpus = roots::CorpusView::from_bytes(
        bytes[0] & 1 ? roots::CorpusFormat::kNcp1 : roots::CorpusFormat::kNcd1,
        bytes.substr(1));
    if (!corpus) continue;
    ++scanned;
    const auto result = ChromiumCounter(scan_options(1)).process_corpus(*corpus);
    EXPECT_EQ(result.records_scanned + result.records_skipped,
              corpus->declared_records());
  }
  EXPECT_GE(seeds, 6u) << "seed corpus went missing";
  EXPECT_GE(scanned, 4u) << "corpus lost its valid-image seeds";
}

// ------------------------------------------------------------- completion

TEST(Completion, ThousandsOfTinyMapsAllComplete) {
  // Each map's completion latch lives in the caller's frame; a worker
  // that touched it after the caller returned would show up here as a
  // hang, a crash, or (under tsan) a race on the next map's frame.
  const auto square = [](std::size_t i) { return i * i; };
  for (std::size_t round = 0; round < 3000; ++round) {
    const std::size_t n = 2 + round % 7;
    const auto mapped = exec::parallel_map(n, 4, square);
    ASSERT_EQ(mapped.back(), (n - 1) * (n - 1));
    ASSERT_EQ(exec::steal_map(n, 4, square), mapped);
  }
}

}  // namespace
}  // namespace netclients::core
