// Zero-copy trace ingestion suite (labels: determinism, tsan): the
// TraceView decoder must materialize exactly the records that were
// written and skip-and-count truncated and corrupted traces, and the NCD1
// corpus scan must produce byte-identical results to the serial reference
// (tests/scan_reference.h) over the records that parsed, at every
// REPRO_THREADS and chunk size.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/chromium/chromium.h"
#include "core/exec/exec.h"
#include "net/rng.h"
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
struct TraceFixture {
  std::string manifest = "trace_view_fixture.manifest";
  std::string path = "trace_view_fixture.000.ncd1";  // the one member
  std::vector<roots::TraceRecord> records;

  TraceFixture() {
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
    EXPECT_TRUE(roots::write_corpus(manifest, records, 1));
  }
};

const TraceFixture& fixture() {
  static TraceFixture* f = new TraceFixture;
  return *f;
}

class CleanupEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    std::filesystem::remove(fixture().manifest);
    std::filesystem::remove(fixture().path);
  }
};
const auto* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new CleanupEnv);

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

ChromiumOptions scan_options() {
  ChromiumOptions options;
  options.sample_rate = kSampleRate;
  return options;
}

/// The records a view's cursor accepts, materialized.
std::vector<roots::TraceRecord> parsed_prefix(const roots::TraceView& view) {
  std::vector<roots::TraceRecord> records;
  auto cursor = view.cursor();
  roots::TraceRecordRef ref;
  while (cursor.next(&ref)) records.push_back(ref.materialize());
  return records;
}

// --------------------------------------------------------- view decoding

TEST(TraceView, CursorMaterializesTheExactRecordStream) {
  const auto& f = fixture();
  const auto view = roots::TraceView::open(f.path);
  ASSERT_TRUE(view);
  EXPECT_EQ(view->declared_count(), f.records.size());

  auto cursor = view->cursor();
  roots::TraceRecordRef ref;
  std::size_t i = 0;
  while (cursor.next(&ref)) {
    ASSERT_LT(i, f.records.size());
    EXPECT_EQ(ref.materialize(), f.records[i]);
    ++i;
  }
  EXPECT_EQ(i, f.records.size());

  const auto stats = view->validate();
  EXPECT_EQ(stats.records_read, f.records.size());
  EXPECT_EQ(stats.records_skipped, 0u);
  EXPECT_FALSE(stats.truncated);
}

TEST(TraceView, FieldAccessorsMatchMaterializedFields) {
  const auto& f = fixture();
  const auto view = roots::TraceView::open(f.path);
  ASSERT_TRUE(view);
  auto cursor = view->cursor();
  roots::TraceRecordRef ref;
  std::size_t i = 0;
  while (cursor.next(&ref) && i < 64) {
    const roots::TraceRecord& want = f.records[i];
    EXPECT_EQ(ref.source(), want.source);
    EXPECT_EQ(ref.qtype(), want.qtype);
    EXPECT_EQ(ref.timestamp(), want.timestamp);
    EXPECT_EQ(ref.root_letter(), want.root_letter);
    ASSERT_EQ(ref.label_count(), want.qname.labels().size());
    std::size_t li = 0;
    ref.for_each_label([&](std::string_view label) {
      EXPECT_EQ(label, want.qname.labels()[li]);
      EXPECT_EQ(ref.label(li), want.qname.labels()[li]);
      ++li;
    });
    ++i;
  }
}

TEST(TraceView, MmapAndBufferBackingsAgree) {
  const auto& f = fixture();
  const auto mapped = roots::TraceView::open(
      f.path, roots::TraceView::Backing::kAuto);
  const auto buffered = roots::TraceView::open(
      f.path, roots::TraceView::Backing::kBuffer);
  ASSERT_TRUE(mapped);
  ASSERT_TRUE(buffered);
  EXPECT_FALSE(buffered->mapped());
  EXPECT_EQ(mapped->payload_bytes(), buffered->payload_bytes());

  roots::CorpusView::OpenOptions buffer_backed;
  buffer_backed.backing = roots::TraceView::Backing::kBuffer;
  const auto mapped_corpus = roots::CorpusView::open(f.manifest);
  const auto buffered_corpus =
      roots::CorpusView::open(f.manifest, buffer_backed);
  ASSERT_TRUE(mapped_corpus && buffered_corpus);
  const ChromiumCounter counter(scan_options());
  EXPECT_TRUE(same_scan(counter.process_corpus(*mapped_corpus),
                        counter.process_corpus(*buffered_corpus)));
}

TEST(TraceView, OpenRejectsMissingFilesAndBadHeaders) {
  // Missing file, short file, bad magic, truncated count header.
  const std::string path = "trace_view_open.bin";
  const std::vector<std::string> bad = {
      std::string(),
      std::string("N"),
      std::string("NCD1\0\0\0", 7),              // count cut short
      std::string("XCD1\0\0\0\0\0\0\0\0", 12),  // wrong magic
  };
  EXPECT_FALSE(roots::TraceView::open("no_such_trace_file.bin"));
  for (const auto& bytes : bad) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    EXPECT_FALSE(roots::TraceView::open(path)) << bytes.size();
    EXPECT_FALSE(
        roots::CorpusView::from_bytes(roots::CorpusFormat::kNcd1, bytes))
        << bytes.size();
  }
  // A header alone (zero records) is a valid, empty trace.
  const std::string empty = roots::TraceFile::encode({});
  std::ofstream(path, std::ios::binary | std::ios::trunc) << empty;
  const auto view = roots::TraceView::open(path);
  ASSERT_TRUE(view);
  EXPECT_EQ(view->declared_count(), 0u);
  const auto corpus =
      roots::CorpusView::from_bytes(roots::CorpusFormat::kNcd1, empty);
  ASSERT_TRUE(corpus);
  EXPECT_EQ(ChromiumCounter().process_corpus(*corpus).records_scanned, 0u);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------ chunker

TEST(RecordChunker, CutsBoundariesByRecordCountAlone) {
  exec::RecordChunker chunker(4);
  for (std::size_t i = 0; i < 10; ++i) chunker.note(i * 10);
  EXPECT_EQ(chunker.records(), 10u);
  const auto chunks = chunker.finish(105);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].begin, 0u);
  EXPECT_EQ(chunks[0].end, 40u);
  EXPECT_EQ(chunks[0].first_record, 0u);
  EXPECT_EQ(chunks[0].records, 4u);
  EXPECT_EQ(chunks[1].begin, 40u);
  EXPECT_EQ(chunks[1].end, 80u);
  EXPECT_EQ(chunks[1].records, 4u);
  EXPECT_EQ(chunks[2].begin, 80u);
  EXPECT_EQ(chunks[2].end, 105u);
  EXPECT_EQ(chunks[2].first_record, 8u);
  EXPECT_EQ(chunks[2].records, 2u);
}

TEST(RecordChunker, EmptyStreamAndZeroChunkSize) {
  exec::RecordChunker empty(4);
  EXPECT_TRUE(empty.finish(0).empty());
  exec::RecordChunker degenerate(0);  // treated as 1 record per chunk
  degenerate.note(0);
  degenerate.note(7);
  const auto chunks = degenerate.finish(20);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].end, 7u);
  EXPECT_EQ(chunks[1].end, 20u);
}

// ----------------------------------------------------- signature matcher

TEST(ByteMatcher, AgreesWithCanonicalMatcherOnEveryLabelShape) {
  // Random labels over a charset with letters of both cases, digits,
  // hyphens: the byte predicate on the raw label must equal the DnsName
  // predicate on the canonical (lowercased) form.
  const std::string charset = "abcXYZmQ019-_";
  net::Rng rng(0xBEEF);
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t len = 1 + rng.below(20);
    std::string label;
    for (std::size_t i = 0; i < len; ++i) {
      label.push_back(charset[rng.below(charset.size())]);
    }
    const auto name = dns::DnsName::from_labels({label});
    ASSERT_TRUE(name.has_value());
    EXPECT_EQ(matches_chromium_signature_bytes(label),
              matches_chromium_signature(*name))
        << label;
  }
}

TEST(ByteMatcher, UppercaseRawBytesCountLikeTheirCanonicalForm) {
  // Hand-craft a trace whose raw label bytes are mixed-case — DnsName
  // never writes these, but the format doesn't forbid them, and
  // materializing lowercases them. The scan must count them like their
  // canonical form, including the sketch keys (same name, different
  // casing, same day must collide with itself).
  std::string bytes = "NCD1";
  const auto put = [&](const void* p, std::size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  const std::uint64_t count = 3;
  put(&count, 8);
  const char* labels[] = {"AbCdEfGh", "abcdefgh", "ABCDEFGH"};
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t source = 0x0A000001;
    const std::uint16_t qtype = 1;
    const double timestamp = 100.0 * i;
    put(&source, 4);
    bytes.push_back('a');
    put(&qtype, 2);
    put(&timestamp, 8);
    bytes.push_back(1);  // label count
    bytes.push_back(8);  // label length
    put(labels[i], 8);
  }
  const auto corpus =
      roots::CorpusView::from_bytes(roots::CorpusFormat::kNcd1, bytes);
  ASSERT_TRUE(corpus);
  const auto loaded = parsed_prefix(*corpus->members().front().trace);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].qname.labels().front(), "abcdefgh");

  const ChromiumOptions options;
  const ChromiumResult scanned = ChromiumCounter(options).process_corpus(*corpus);
  EXPECT_TRUE(same_scan(scanned, reference_scan(loaded, options)));
  EXPECT_EQ(scanned.signature_matches, 3u);
}

// ------------------------------------------------------------ scan parity

TEST(ScanParity, ByteIdenticalToTheReferenceAtEveryThreadCount) {
  const auto& f = fixture();
  const ChromiumResult reference = reference_scan(f.records, scan_options());
  EXPECT_GT(reference.signature_matches, 0u);
  const auto corpus = roots::CorpusView::open(f.manifest);
  ASSERT_TRUE(corpus);
  for (const char* threads : {"1", "2", "8"}) {
    SCOPED_TRACE(threads);
    ::setenv("REPRO_THREADS", threads, 1);
    const ChromiumResult scanned =
        ChromiumCounter(scan_options()).process_corpus(*corpus);
    EXPECT_TRUE(same_scan(scanned, reference));
    EXPECT_EQ(scanned.records_skipped, 0u);
    EXPECT_TRUE(
        same_scan(ChromiumCounter(scan_options()).process(f.records),
                  reference));
  }
  ::unsetenv("REPRO_THREADS");
}

TEST(ScanParity, ChunkSizeDoesNotChangeTheResult) {
  const auto& f = fixture();
  const auto corpus = roots::CorpusView::open(f.manifest);
  ASSERT_TRUE(corpus);
  ChromiumOptions options = scan_options();
  const ChromiumResult reference = reference_scan(f.records, options);
  for (const std::size_t chunk : {std::size_t{1} << 4, std::size_t{1} << 9,
                                  std::size_t{1} << 20}) {
    SCOPED_TRACE(chunk);
    options.chunk_records = chunk;
    EXPECT_TRUE(same_scan(ChromiumCounter(options).process_corpus(*corpus),
                          reference));
  }
}

// Structural mutations only (truncation, count inflation, length-byte
// damage): surviving records stay well-formed, so the parity check can
// compare the whole scan with the reference over the parsed prefix.
TEST(ScanParity, DamagedTailsSkipAndCount) {
  const auto& f = fixture();
  const std::string clean = slurp(f.path);
  ASSERT_GT(clean.size(), 200u);

  std::vector<std::string> mutants;
  // Truncations: mid-header of an early record, mid-label, one byte shy.
  for (const std::size_t cut : {clean.size() / 2, clean.size() / 3 + 5,
                                clean.size() - 1, std::size_t{12 + 7}}) {
    mutants.push_back(clean.substr(0, cut));
  }
  {
    // Corrupt count: header declares more records than the file holds.
    auto inflated = clean;
    std::uint64_t declared;
    std::memcpy(&declared, inflated.data() + 4, 8);
    declared += 5;
    std::memcpy(inflated.data() + 4, &declared, 8);
    mutants.push_back(std::move(inflated));
  }
  {
    // Ragged label: a length byte in the middle claims 63 bytes the
    // record doesn't have, desyncing everything after it.
    auto ragged = clean;
    ragged[ragged.size() / 2] = 63;
    mutants.push_back(std::move(ragged));
  }

  for (std::size_t m = 0; m < mutants.size(); ++m) {
    SCOPED_TRACE(m);
    const auto corpus = roots::CorpusView::from_bytes(
        roots::CorpusFormat::kNcd1, mutants[m]);
    ASSERT_TRUE(corpus);
    const roots::TraceView& view = *corpus->members().front().trace;
    const auto stats = view.validate();
    const auto parsed = parsed_prefix(view);
    EXPECT_EQ(stats.records_read, parsed.size());
    EXPECT_EQ(stats.records_read + stats.records_skipped,
              view.declared_count());

    for (const int threads : {1, 8}) {
      ChromiumOptions options = scan_options();
      options.threads = threads;
      const ChromiumResult scanned =
          ChromiumCounter(options).process_corpus(*corpus);
      EXPECT_TRUE(same_scan(scanned, reference_scan(parsed, options)));
      EXPECT_EQ(scanned.records_skipped, stats.records_skipped);
    }
  }
}

}  // namespace
}  // namespace netclients::core
