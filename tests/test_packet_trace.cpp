// Packet-framed (NCP1) trace suite (labels: determinism, tsan): the
// capture-shaped sibling of test_trace_view. write_packet_trace must
// round-trip records through real RFC 1035 packets, the framing cursor
// must skip-and-count damaged tails exactly like the NCD1 cursor, and the
// corpus scan of an NCP1 member — which pays a full zero-copy wire parse
// per packet inside the parallel scan — must produce byte-identical
// results to the serial reference (tests/scan_reference.h) over the same
// records at every thread count.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/chromium/chromium.h"
#include "dns/packet.h"
#include "net/rng.h"
#include "roots/corpus.h"
#include "roots/packet_trace.h"
#include "roots/root_server.h"
#include "roots/trace.h"
#include "scan_reference.h"
#include "sim/ditl.h"
#include "sim/world.h"

namespace netclients::core {
namespace {

constexpr double kSampleRate = 1.0 / 4;

// One sampled DITL capture shared by every case in this (batch) binary.
struct PacketFixture {
  std::string path = "packet_trace_fixture.trace";
  std::vector<roots::TraceRecord> records;

  PacketFixture() {
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
    EXPECT_TRUE(roots::write_packet_trace(path, records));
  }
};

const PacketFixture& fixture() {
  static PacketFixture* f = new PacketFixture;
  return *f;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

ChromiumOptions scan_options(int threads = 0) {
  ChromiumOptions options;
  options.sample_rate = kSampleRate;
  options.threads = threads;
  return options;
}

/// An NCP1 image as a one-member corpus.
std::optional<roots::CorpusView> packet_corpus(std::string image) {
  return roots::CorpusView::from_bytes(roots::CorpusFormat::kNcp1,
                                       std::move(image));
}

TEST(PacketTrace, WriteOpenRoundTripsEveryRecord) {
  const auto& f = fixture();
  const auto view = roots::PacketTraceView::open(f.path);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->declared_count(), f.records.size());

  roots::PacketTraceView::Cursor cursor = view->cursor();
  roots::PacketRecordRef ref;
  std::size_t i = 0;
  while (cursor.next(&ref)) {
    ASSERT_LT(i, f.records.size());
    const roots::TraceRecord& expected = f.records[i];
    EXPECT_EQ(ref.source(), expected.source);
    EXPECT_EQ(ref.root_letter(), expected.root_letter);
    EXPECT_EQ(ref.timestamp(), expected.timestamp);
    // The payload is a real packet: parse it and compare the question.
    const auto msg = dns::MessageView::parse(ref.wire());
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->question_count(), 1u);
    EXPECT_TRUE(msg->first_question().name.equals(expected.qname));
    EXPECT_EQ(msg->first_question().type, expected.qtype);
    EXPECT_FALSE(msg->header().rd);
    ++i;
  }
  EXPECT_EQ(i, f.records.size());
  const auto stats = view->validate();
  EXPECT_EQ(stats.records_read, f.records.size());
  EXPECT_EQ(stats.records_skipped, 0u);
  EXPECT_FALSE(stats.truncated);
}

TEST(PacketTrace, ScanMatchesTheReference) {
  const auto& f = fixture();
  const ChromiumResult reference = reference_scan(f.records, scan_options());
  EXPECT_GT(reference.signature_matches, 0u);
  const auto corpus = packet_corpus(slurp(f.path));
  ASSERT_TRUE(corpus.has_value());
  for (const int threads : {1, 2, 8}) {
    for (const std::size_t chunk : {std::size_t{256}, std::size_t{1} << 15}) {
      ChromiumOptions check = scan_options(threads);
      check.chunk_records = chunk;
      const auto result = ChromiumCounter(check).process_corpus(*corpus);
      EXPECT_TRUE(same_scan(result, reference))
          << "threads=" << threads << " chunk=" << chunk;
      EXPECT_EQ(result.records_skipped, 0u);
    }
  }
}

TEST(PacketTrace, DamagedTailSkipsAndCounts) {
  const auto& f = fixture();
  ASSERT_GT(f.records.size(), 8u);
  // Truncate the image mid-frame: everything before the cut survives, the
  // declared remainder is counted as skipped — never an error.
  std::string bytes = slurp(f.path);
  bytes.resize(bytes.size() * 3 / 4);
  const auto corpus = packet_corpus(std::move(bytes));
  ASSERT_TRUE(corpus.has_value());
  const auto stats = corpus->members().front().packets->validate();
  EXPECT_LT(stats.records_read, f.records.size());
  EXPECT_EQ(stats.records_read + stats.records_skipped, f.records.size());
  EXPECT_TRUE(stats.truncated);

  const std::vector<roots::TraceRecord> parsed(
      f.records.begin(),
      f.records.begin() + static_cast<std::ptrdiff_t>(stats.records_read));
  for (const int threads : {1, 8}) {
    const auto result =
        ChromiumCounter(scan_options(threads)).process_corpus(*corpus);
    EXPECT_TRUE(same_scan(result, reference_scan(parsed, scan_options())));
    EXPECT_EQ(result.records_skipped, stats.records_skipped);
  }
}

TEST(PacketTrace, CorruptPacketIsScannedNonMatchNotFramingError) {
  // Flip bytes inside one packet's DNS payload (not its capture header):
  // framing still walks the full image, the packet just fails to parse in
  // the scan — it is scanned, it never matches, and skip count stays zero.
  const auto& f = fixture();
  std::string bytes = slurp(f.path);
  // First frame starts at 12; its packet bytes start 15 further in.
  // Zero the packet's header counts region to make it unparseable.
  for (std::size_t b = 12 + 15; b < 12 + 15 + 12 && b < bytes.size(); ++b) {
    bytes[b] = static_cast<char>(0xFF);
  }
  const auto corpus = packet_corpus(std::move(bytes));
  ASSERT_TRUE(corpus.has_value());
  EXPECT_EQ(corpus->members().front().packets->validate().records_read,
            f.records.size());

  // The reference sees the corrupt packet as a record that cannot match.
  std::vector<roots::TraceRecord> expected = f.records;
  expected.front().qname = *dns::DnsName::parse("corrupt.invalid");
  for (const int threads : {1, 8}) {
    const auto result =
        ChromiumCounter(scan_options(threads)).process_corpus(*corpus);
    EXPECT_TRUE(same_scan(result, reference_scan(expected, scan_options())));
    EXPECT_EQ(result.records_skipped, 0u);
  }
}

TEST(PacketTrace, OpenRejectsWrongMagicAndMissingFile) {
  EXPECT_FALSE(roots::PacketTraceView::open("no_such_file.trace").has_value());
  const std::string bad_path = "packet_trace_bad_magic.trace";
  {
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write("NCD1\0\0\0\0\0\0\0\0", 12);  // record-framed magic, not NCP1
  }
  EXPECT_FALSE(roots::PacketTraceView::open(bad_path).has_value());
  std::filesystem::remove(bad_path);
}

TEST(PacketTrace, FuzzedFramesNeverCrash) {
  net::Rng rng(0x9C);
  const std::string clean = slurp(fixture().path);
  for (int iter = 0; iter < 40; ++iter) {
    std::string bytes = clean;
    const int mutations = 1 + static_cast<int>(rng.below(6));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      if (rng.bernoulli(0.3)) {
        bytes.resize(rng.below(bytes.size() + 1));
      } else if (!bytes.empty()) {
        bytes[rng.below(bytes.size())] ^=
            static_cast<char>(1 + rng.below(255));
      }
    }
    const auto corpus = packet_corpus(std::move(bytes));
    if (!corpus) continue;  // header damaged: rejected, fine
    const roots::PacketTraceView& view = *corpus->members().front().packets;
    const auto stats = view.validate();
    EXPECT_EQ(stats.records_read + stats.records_skipped,
              view.declared_count());
    // The scan must terminate, never read past the image, and account for
    // every declared record, whatever survived the mutation.
    const auto result =
        ChromiumCounter(scan_options()).process_corpus(*corpus);
    EXPECT_EQ(result.records_scanned, stats.records_read);
    EXPECT_EQ(result.records_skipped, stats.records_skipped);
  }
}

}  // namespace
}  // namespace netclients::core
