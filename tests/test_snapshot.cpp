// Snapshot store + serving index suite (labels: determinism, tsan).
//
// Covers the netclients.snap.v1 persistence layer end to end: lossless
// round-trips, byte-identical encodes regardless of REPRO_THREADS, the
// tolerant reader's skip-and-count behaviour under truncation and
// per-section corruption (it must never crash and must keep every intact
// epoch), the strict validate() gate, the fuzz_snapshot seed corpus
// (tests/corpus/snap/) replayed with the harness's property,
// snapshot-handle lookup determinism across thread counts, and
// epoch-diff churn analytics. (The serving
// tier itself — handle lifetime, concurrent publish/read — lives in
// test_serve.)
//
// One shared fixture runs the two-epoch campaign once; every case reads
// from it. Campaigns are expensive — keep the world at kScale.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario/scenario.h"
#include "core/serve/service.h"
#include "core/snapshot/snapshot.h"
#include "index_reference.h"
#include "net/rng.h"

namespace netclients::core {
namespace {

constexpr double kScale = 2048;

/// Shared two-epoch campaign + its encoded snapshot, built once.
class SnapshotSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(ScenarioBuilder()
                                 .scale_denominator(kScale)
                                 .epochs(2)
                                 .build());
    epochs_ = new std::vector<snapshot::EpochRecord>(scenario_->run_epochs());
    bytes_ = new std::string(snapshot::encode(*epochs_));
  }
  static void TearDownTestSuite() {
    delete bytes_;
    delete epochs_;
    delete scenario_;
    bytes_ = nullptr;
    epochs_ = nullptr;
    scenario_ = nullptr;
  }

  static const Scenario& scenario() { return *scenario_; }
  static const std::vector<snapshot::EpochRecord>& epochs() {
    return *epochs_;
  }
  static const std::string& bytes() { return *bytes_; }

 private:
  static Scenario* scenario_;
  static std::vector<snapshot::EpochRecord>* epochs_;
  static std::string* bytes_;
};

Scenario* SnapshotSuite::scenario_ = nullptr;
std::vector<snapshot::EpochRecord>* SnapshotSuite::epochs_ = nullptr;
std::string* SnapshotSuite::bytes_ = nullptr;

/// Runs `fn` with REPRO_THREADS pinned to `threads`, restoring the
/// previous value afterwards.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  const char* prev = std::getenv("REPRO_THREADS");
  const std::string saved = prev ? prev : "";
  ::setenv("REPRO_THREADS", std::to_string(threads).c_str(), 1);
  auto result = fn();
  if (prev) {
    ::setenv("REPRO_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("REPRO_THREADS");
  }
  return result;
}

// ------------------------------------------------------------ round trip

TEST_F(SnapshotSuite, CampaignProducesNonTrivialEpochs) {
  ASSERT_EQ(epochs().size(), 2u);
  EXPECT_GT(epochs()[0].prefixes.size(), 0u);
  EXPECT_GT(epochs()[1].prefixes.size(), 0u);
  EXPECT_GT(epochs()[0].totals.probes_sent, 0u);
  EXPECT_GT(epochs()[0].as_aggregates.size(), 0u);
  EXPECT_EQ(epochs()[0].world_seed, scenario().world().config().seed);
}

TEST_F(SnapshotSuite, RoundTripIsLossless) {
  const auto file = snapshot::decode(bytes());
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->stats.sections_skipped, 0u);
  EXPECT_EQ(file->stats.crc_failures, 0u);
  EXPECT_FALSE(file->stats.truncated);
  ASSERT_EQ(file->epochs.size(), epochs().size());
  for (std::size_t i = 0; i < epochs().size(); ++i) {
    EXPECT_EQ(file->epochs[i], epochs()[i]) << "epoch " << i;
  }
}

TEST_F(SnapshotSuite, DeltaEncodingShrinksLaterEpochs) {
  // Epoch 1 is stored as a delta against epoch 0; with heavy overlap
  // between the epochs' active sets it must be smaller than a full
  // re-encode of epoch 1 alone.
  const std::string full_epoch1 = snapshot::encode({epochs()[1]});
  const std::string both = snapshot::encode(epochs());
  const std::string full_epoch0 = snapshot::encode({epochs()[0]});
  EXPECT_LT(both.size(), full_epoch0.size() + full_epoch1.size());
}

TEST_F(SnapshotSuite, EncodeIsByteIdenticalAcrossThreadCounts) {
  // The campaign itself is the threaded stage; encode consumes its
  // (already deterministic) records. Re-run the whole pipeline at 1 and
  // 4 threads and require identical bytes.
  const std::string serial = with_threads(1, [&] {
    return snapshot::encode(scenario().run_epochs());
  });
  const std::string parallel = with_threads(4, [&] {
    return snapshot::encode(scenario().run_epochs());
  });
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, bytes());
}

TEST_F(SnapshotSuite, FileRoundTripMatchesInMemory) {
  const std::string path = ::testing::TempDir() + "snapshot_roundtrip.snap";
  ASSERT_TRUE(snapshot::write(path, epochs()));
  const auto file = snapshot::read(path);
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->epochs, epochs());
  EXPECT_TRUE(snapshot::validate_file(path).empty());
  std::remove(path.c_str());
}

// ------------------------------------------------- tolerance under damage

TEST_F(SnapshotSuite, TruncationAtEveryLengthNeverCrashes) {
  // Chop the file at a spread of lengths (every prefix of the header
  // region, then strided): decode must never crash, must never invent
  // epochs, and — except when the cut lands exactly on a frame boundary,
  // where the shorter file is indistinguishable from a well-formed one —
  // must flag truncation.
  const std::string& good = bytes();
  for (std::size_t cut = 0; cut < good.size();
       cut += (cut < 64 ? 1 : 97)) {
    const auto file = snapshot::decode(std::string_view(good).substr(0, cut));
    if (cut < 8) {
      EXPECT_FALSE(file.has_value()) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(file.has_value()) << "cut=" << cut;
    // A proper prefix of the file can never carry every section of both
    // epochs, so either the reader noticed the ragged tail or it dropped
    // an incomplete epoch (boundary cut).
    EXPECT_TRUE(file->stats.truncated ||
                file->epochs.size() < epochs().size())
        << "cut=" << cut;
    EXPECT_LE(file->epochs.size(), epochs().size());
  }
}

TEST_F(SnapshotSuite, CorruptionOfAnyByteIsContained) {
  // Flip one byte at a stride of positions. Whatever breaks, decode must
  // not crash, and any fully intact epoch it does return must equal the
  // original record exactly (CRC framing catches the rest).
  const std::string& good = bytes();
  for (std::size_t pos = 8; pos < good.size(); pos += 131) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5A);
    const auto file = snapshot::decode(bad);
    if (!file.has_value()) continue;  // magic damaged
    for (const auto& epoch : file->epochs) {
      for (const auto& orig : epochs()) {
        if (orig.epoch_id == epoch.epoch_id &&
            orig.world_seed == epoch.world_seed &&
            orig.prefixes.size() == epoch.prefixes.size()) {
          // Same identity and shape: sampled fields must agree (a raw
          // EXPECT_EQ of whole epochs would also pass, but this keeps
          // the failure message readable).
          EXPECT_EQ(orig.totals.cache_hits, epoch.totals.cache_hits);
        }
      }
    }
  }
}

TEST_F(SnapshotSuite, DamagedDeltaSectionDropsOnlyThatEpoch) {
  // Corrupt a byte inside the LAST epoch's span: epoch 0 (stored full,
  // earlier in the file) must survive; the damaged epoch must be
  // dropped and counted.
  const std::string& good = bytes();
  // The final section's CRC field sits in the last frame; corrupt the
  // file's final payload byte, which belongs to epoch 1.
  std::string bad = good;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0xFF);
  const auto file = snapshot::decode(bad);
  ASSERT_TRUE(file.has_value());
  ASSERT_GE(file->epochs.size(), 1u);
  EXPECT_EQ(file->epochs[0], epochs()[0]);
  EXPECT_GE(file->stats.crc_failures + file->stats.sections_skipped, 1u);
  EXPECT_GE(file->stats.epochs_skipped, 1u);
}

TEST_F(SnapshotSuite, ValidateAcceptsGoodRejectsCorrupt) {
  EXPECT_TRUE(snapshot::validate(bytes()).empty());
  std::string bad = bytes();
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  EXPECT_FALSE(snapshot::validate(bad).empty());
  EXPECT_FALSE(snapshot::validate("NOTASNAP").empty());
  EXPECT_FALSE(snapshot::validate(std::string_view(bytes()).substr(
                   0, bytes().size() - 3))
                   .empty());
}

// ------------------------------------------------------ fuzz seed corpus

/// fuzz_snapshot's property: the tolerant reader never crashes, and the
/// strict validate() rejects every image the tolerant reader skipped
/// anything from. Returns true when decode() read the image cleanly.
bool check_reader_property(const std::string& bytes) {
  (void)snapshot::section_sizes(bytes);
  const auto file = snapshot::decode(bytes);
  const bool skipped = !file || file->stats.sections_skipped != 0 ||
                       file->stats.epochs_skipped != 0 ||
                       file->stats.crc_failures != 0 || file->stats.truncated;
  if (skipped) {
    EXPECT_NE(snapshot::validate(bytes), "")
        << "validate() accepts an image the tolerant reader skipped from";
  }
  return !skipped;
}

std::vector<std::pair<std::string, std::string>> snap_seeds() {
  std::vector<std::pair<std::string, std::string>> seeds;
  for (const auto& entry :
       std::filesystem::directory_iterator(NETCLIENTS_SNAP_CORPUS_DIR)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    seeds.emplace_back(entry.path().filename().string(),
                       std::string{std::istreambuf_iterator<char>(in), {}});
  }
  std::sort(seeds.begin(), seeds.end());
  return seeds;
}

TEST(SnapshotFuzz, SeedCorpusReplays) {
  const auto seeds = snap_seeds();
  std::size_t clean = 0;
  for (const auto& [name, bytes] : seeds) {
    SCOPED_TRACE(name);
    clean += check_reader_property(bytes);
  }
  EXPECT_GE(seeds.size(), 10u) << "seed corpus went missing";
  // The clean image and the magic-only file read without a skip; every
  // corpse exercises a skip path.
  EXPECT_EQ(clean, 2u);
}

TEST(SnapshotFuzz, MutatedSeedsKeepTheReaderProperty) {
  // A deterministic stand-in for the libFuzzer run: byte flips, byte
  // overwrites, truncations and splices of every seed.
  net::Rng rng(0x5EED5A9);
  for (const auto& [name, seed] : snap_seeds()) {
    SCOPED_TRACE(name);
    if (seed.empty()) continue;
    for (int round = 0; round < 2000; ++round) {
      std::string bytes = seed;
      const int edits = 1 + static_cast<int>(rng() % 4);
      for (int e = 0; e < edits && !bytes.empty(); ++e) {
        const std::size_t at = rng() % bytes.size();
        switch (rng() % 4) {
          case 0: bytes[at] ^= static_cast<char>(1u << (rng() % 8)); break;
          case 1: bytes[at] = static_cast<char>(rng()); break;
          case 2: bytes.resize(at); break;
          default: bytes.insert(at, seed.substr(rng() % seed.size(), 8));
        }
      }
      check_reader_property(bytes);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ----------------------------------------------------------- serving index

TEST_F(SnapshotSuite, LookupManyIsByteIdenticalAcrossThreadCounts) {
  // All serving goes through the Service handle API; the ClientIndex
  // underneath is an internal build artifact.
  serve::Service service;
  service.publish(std::span<const snapshot::EpochRecord>(epochs()));
  const serve::SnapshotHandle handle = service.acquire();
  ASSERT_GT(handle->index().prefix_count(), 0u);

  // ~200k deterministic queries spanning hits and misses.
  net::Rng rng(0xD15C0);
  std::vector<net::Ipv4Addr> queries;
  queries.reserve(200000);
  for (int i = 0; i < 200000; ++i) {
    queries.push_back(net::Ipv4Addr(static_cast<std::uint32_t>(rng())));
  }
  const auto one = handle->lookup_many(queries, 1);
  const auto eight = handle->lookup_many(queries, 8);
  EXPECT_EQ(one, eight);

  // REPRO_THREADS env form (threads = 0) must agree too.
  const auto env_one =
      with_threads(1, [&] { return handle->lookup_many(queries, 0); });
  const auto env_eight =
      with_threads(8, [&] { return handle->lookup_many(queries, 0); });
  EXPECT_EQ(env_one, env_eight);
  EXPECT_EQ(one, env_one);

  // And the batched path answers exactly what the single-query path and
  // the radix-trie oracle built from the epochs themselves answer.
  const IndexReference reference{
      std::span<const snapshot::EpochRecord>(epochs())};
  for (std::size_t i = 0; i < queries.size(); i += 173) {
    ASSERT_EQ(handle->lookup(queries[i]), one[i]) << "query " << i;
    ASSERT_EQ(reference.lookup(queries[i]), one[i]) << "query " << i;
  }
}

TEST_F(SnapshotSuite, IndexAggregatesMatchEntrySums) {
  serve::Service service;
  service.publish(std::span<const snapshot::EpochRecord>(epochs()));
  const serve::SnapshotHandle handle = service.acquire();
  const serve::ClientIndex& index = handle->index();
  double as_total = 0;
  for (const auto& agg : index.as_aggregates()) {
    EXPECT_EQ(index.as_volume(agg.asn), agg.volume);
    as_total += agg.volume;
  }
  EXPECT_LE(as_total, index.total_volume() + 1e-9);
  const auto top = index.top_as(3);
  ASSERT_LE(top.size(), 3u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].volume, top[i].volume);
  }
}

// ------------------------------------------------------------- epoch diff

TEST_F(SnapshotSuite, DiffReportsChurnAndIsDeterministic) {
  const serve::EpochDiff d1 = serve::diff_epochs(epochs()[0], epochs()[1]);
  const serve::EpochDiff d2 = serve::diff_epochs(epochs()[0], epochs()[1]);
  EXPECT_EQ(d1.gained, d2.gained);
  EXPECT_EQ(d1.lost, d2.lost);
  EXPECT_EQ(d1.persisting, d2.persisting);
  EXPECT_EQ(d1.mean_rank_drift, d2.mean_rank_drift);

  // Re-keyed epochs must actually churn (the acceptance criterion
  // snapctl diff demonstrates): some prefixes gained, some lost, and a
  // heavy persisting core.
  EXPECT_GT(d1.gained.size(), 0u);
  EXPECT_GT(d1.lost.size(), 0u);
  EXPECT_GT(d1.persisting, 0u);
  EXPECT_GT(d1.persisting, d1.gained.size() / 4);

  // Conservation: every `from` prefix is lost or persisting, every `to`
  // prefix gained or persisting.
  EXPECT_EQ(d1.lost.size() + d1.persisting, epochs()[0].prefixes.size());
  EXPECT_EQ(d1.gained.size() + d1.persisting, epochs()[1].prefixes.size());
}

TEST_F(SnapshotSuite, DiffOfAnEpochWithItselfIsEmpty) {
  const serve::EpochDiff d = serve::diff_epochs(epochs()[0], epochs()[0]);
  EXPECT_EQ(d.gained.size(), 0u);
  EXPECT_EQ(d.lost.size(), 0u);
  EXPECT_EQ(d.persisting, epochs()[0].prefixes.size());
  EXPECT_EQ(d.mean_rank_drift, 0.0);
  EXPECT_EQ(d.normalized_rank_drift, 0.0);
}

}  // namespace
}  // namespace netclients::core
