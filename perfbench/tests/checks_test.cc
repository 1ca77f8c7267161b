// Tests of the benchmark's own checks: hand-built cases, and for each
// check a planted wrong answer it must reject.

#include <gtest/gtest.h>

#include "checks.h"
#include "core/chromium/chromium.h"
#include "core/serve/service.h"
#include "gen.h"
#include "roots/trace.h"
#include "sim/world.h"

namespace perfbench {
namespace {

namespace core = netclients::core;
namespace dns = netclients::dns;
namespace roots = netclients::roots;

dns::DnsName name(const char* text) { return *dns::DnsName::parse(text); }

TEST(SignatureMatcher, PaperShape) {
  EXPECT_TRUE(is_signature_label("abcdefg"));          // 7 letters
  EXPECT_TRUE(is_signature_label("abcdefghijklmno"));  // 15 letters
  EXPECT_TRUE(is_signature_label("AbCdEfGh"));         // either case
  EXPECT_FALSE(is_signature_label("abcdef"));          // 6
  EXPECT_FALSE(is_signature_label("abcdefghijklmnop"));  // 16
  EXPECT_FALSE(is_signature_label("abcd3fgh"));        // digit
  EXPECT_FALSE(is_signature_label("abcd-fgh"));        // hyphen
  EXPECT_TRUE(is_signature_name(name("qwertyui")));
  EXPECT_FALSE(is_signature_name(name("qwertyui.com")));  // has a TLD
  EXPECT_FALSE(is_signature_name(name("com")));
}

TEST(SignatureMatcher, AgreesWithProgramOnHandBuiltNames) {
  for (const char* text : {"abcdefg", "abcdefghijklmno", "abcdef",
                           "abcdefghijklmnop", "abcd3fgh", "qwerty.uiop",
                           "ns1", "wpad", "zzzzzzzzzz"}) {
    EXPECT_EQ(is_signature_name(name(text)),
              core::matches_chromium_signature(name(text)))
        << text;
  }
}

roots::TraceRecord record(const char* qname, double day, std::uint32_t src) {
  roots::TraceRecord r;
  r.qname = name(qname);
  r.timestamp = day * 86400.0 + 10.0;
  r.source = net::Ipv4Addr(src);
  return r;
}

/// Source 1 sends three distinct probe names once each; source 2 sends
/// one name eight times (a collision at the 7-per-day threshold); source
/// 3 sends only names that do not match.
std::vector<roots::TraceRecord> hand_trace() {
  std::vector<roots::TraceRecord> t = {
      record("aaaaaaaa", 0, 1), record("bbbbbbbbb", 0, 1),
      record("cccccccccc", 1, 1), record("example.com", 0, 3),
      record("wpad", 0, 3)};
  for (int i = 0; i < 8; ++i) t.push_back(record("dddddddd", 0, 2));
  return t;
}

// Spill files go to the working directory; finish() removes them.
ExactDailyCounter counted(const std::vector<roots::TraceRecord>& trace) {
  ExactDailyCounter exact("exact_counter_test.matches");
  for (const auto& r : trace) {
    exact.add(r.qname, r.timestamp, r.source.value());
  }
  exact.finish(1.0);
  return exact;
}

TEST(ExactDailyCounter, HandBuiltTrace) {
  const auto trace = hand_trace();
  const ExactDailyCounter exact = counted(trace);
  EXPECT_EQ(exact.records(), 13u);
  EXPECT_EQ(exact.matches(), 11u);
  core::ChromiumResult good;
  good.records_scanned = 13;
  good.signature_matches = 11;
  good.probes_by_resolver = {{1, 3.0}};
  EXPECT_TRUE(exact.check(good).empty());
}

TEST(ExactDailyCounter, AcceptsTheProgramsScan) {
  const auto trace = hand_trace();
  core::ChromiumOptions options;
  options.threads = 1;
  const core::ChromiumResult result =
      core::ChromiumCounter(options).process(trace);
  EXPECT_TRUE(counted(trace).check(result).empty());
}

TEST(ExactDailyCounter, RejectsPlantedWrongAnswers) {
  const ExactDailyCounter exact = counted(hand_trace());
  core::ChromiumResult good;
  good.records_scanned = 13;
  good.signature_matches = 11;
  good.probes_by_resolver = {{1, 3.0}};

  core::ChromiumResult r = good;
  r.signature_matches = 12;  // matcher disagreement
  EXPECT_FALSE(exact.check(r).empty());
  r = good;
  r.records_scanned = 12;  // a record lost
  EXPECT_FALSE(exact.check(r).empty());
  r = good;
  r.records_skipped = 1;
  EXPECT_FALSE(exact.check(r).empty());
  r = good;
  r.probes_by_resolver[2] = 8.0;  // the colliding name attributed
  EXPECT_FALSE(exact.check(r).empty());
  r = good;
  r.probes_by_resolver[1] = 4.0;  // more than source 1 sent
  EXPECT_FALSE(exact.check(r).empty());
  r = good;
  r.probes_by_resolver[3] = 1.0;  // a source with no matching record
  EXPECT_FALSE(exact.check(r).empty());
}

TEST(ExactDailyCounter, NamesCountPerDayAndCaseBlind) {
  ExactDailyCounter exact("exact_counter_test.matches");
  // Seven sightings split over two days stay below the daily threshold.
  for (int i = 0; i < 4; ++i) exact.add(name("eeeeeeee"), 10.0, 5);
  for (int i = 0; i < 3; ++i) exact.add(name("EEEEEEEE"), 86410.0, 5);
  exact.finish(1.0);
  core::ChromiumResult r;
  r.records_scanned = 7;
  r.signature_matches = 7;
  r.probes_by_resolver = {{5, 7.0}};
  EXPECT_TRUE(exact.check(r).empty());
}

TEST(ExactDailyCounter, RejectsEveryScanWhenItsSpillFileIsLost) {
  core::ChromiumResult good;
  good.records_scanned = 13;
  good.signature_matches = 11;
  good.probes_by_resolver = {{1, 3.0}};
  ASSERT_TRUE(counted(hand_trace()).check(good).empty());
  for (const char* path : {"", "no/such/directory/exact.matches"}) {
    ExactDailyCounter lost(path);
    for (const auto& rec : hand_trace()) {
      lost.add(rec.qname, rec.timestamp, rec.source.value());
    }
    lost.finish(1.0);
    EXPECT_FALSE(lost.check(good).empty()) << path;
  }
}

/// Two prefixes written by hand: 10.0.0.0/24 and 10.0.1.16/28.
Universe hand_universe() {
  Universe u;
  u.seed = 99;
  u.prefixes = {net::Prefix(net::Ipv4Addr::from_octets(10, 0, 0, 0), 24),
                net::Prefix(net::Ipv4Addr::from_octets(10, 0, 1, 16), 28)};
  u.by_rank = {0, 1};
  u.rank_of = {0, 1};
  u.bucket.assign(65537, 2);
  for (std::uint32_t h = 0; h <= (10u << 8); ++h) u.bucket[h] = 0;
  return u;
}

TEST(AnswerModel, HandBuiltUniverse) {
  const Universe u = hand_universe();
  const net::Ipv4Addr inside = net::Ipv4Addr::from_octets(10, 0, 0, 77);
  const net::Ipv4Addr sub = net::Ipv4Addr::from_octets(10, 0, 1, 20);
  const net::Ipv4Addr gap = net::Ipv4Addr::from_octets(10, 0, 1, 40);
  EXPECT_EQ(u.find(inside), 0);
  EXPECT_EQ(u.find(sub), 1);
  EXPECT_EQ(u.find(gap), -1);
  EXPECT_EQ(expected_answer(u, gap, 2, 3), core::serve::LookupResult{});
  const core::serve::LookupResult a = expected_answer(u, inside, 2, 3);
  double volume_sum = 0;
  std::uint32_t mask = 0;
  for (std::uint32_t e = 0; e <= 2; ++e) {
    if (!present(u, e, 0)) continue;
    volume_sum += volume(u, e, 0);
    mask |= domain_mask(u, e, 0);
  }
  EXPECT_EQ(a.active, volume_sum > 0);
  EXPECT_EQ(a.volume, volume_sum);
  EXPECT_EQ(a.domain_mask, mask);
  EXPECT_EQ(a.prefix, u.prefixes[0]);
}

TEST(AnswerModel, MatchesServiceAndRejectsPlantedAnswers) {
  const Universe u =
      make_universe(7, 3000, LengthMix{}, kSpaceBegin, kSpaceBegin + (1u << 26));
  ASSERT_GT(u.size(), 2000u);
  core::serve::ServiceOptions options;
  options.max_epochs = 3;
  core::serve::Service service(options);
  for (std::uint32_t e = 0; e < 5; ++e) {
    service.publish(make_epoch_record(u, e));
  }
  const auto handle = service.acquire();
  ASSERT_EQ(handle->latest_epoch(), 4u);
  ASSERT_EQ(handle->epoch_count(), 3u);
  const auto addrs = make_queries(u, query_mix(), 20000, 1);
  std::vector<core::serve::LookupResult> out(addrs.size());
  handle->lookup_many(addrs, out.data(), 1);
  EXPECT_EQ(count_mismatches(u, addrs, out.data(), 4, 3), 0u);
  const std::uint64_t digest = model_digest(u, addrs, 4, 3);
  EXPECT_EQ(answer_digest(out), digest);
  std::size_t misses = 0;
  for (const auto& r : out) misses += r.active ? 0 : 1;
  EXPECT_GT(misses, addrs.size() / 10);  // the miss share reaches the index

  // The wrong epoch window is caught...
  EXPECT_GT(count_mismatches(u, addrs, out.data(), 4, 4), 0u);
  EXPECT_GT(count_mismatches(u, addrs, out.data(), 3, 3), 0u);
  EXPECT_NE(answer_digest(out), model_digest(u, addrs, 4, 4));
  EXPECT_NE(answer_digest(out), model_digest(u, addrs, 3, 3));
  // ...and so is one planted wrong answer of each kind.
  std::size_t hit = 0;
  while (!out[hit].active) ++hit;
  for (int kind = 0; kind < 5; ++kind) {
    auto planted = out;
    switch (kind) {
      case 0: planted[hit].volume += 1; break;
      case 1: planted[hit].domain_mask ^= 1; break;
      case 2: planted[hit].asn += 1; break;
      case 3: planted[hit] = core::serve::LookupResult{}; break;
      case 4: planted[hit].country += 1; break;
    }
    EXPECT_EQ(count_mismatches(u, addrs, planted.data(), 4, 3), 1u) << kind;
    EXPECT_NE(answer_digest(planted), digest) << kind;
  }
  // Two answers swapped: same multiset, wrong order.
  auto swapped = out;
  std::size_t other = hit + 1;
  while (swapped[other] == swapped[hit]) ++other;
  std::swap(swapped[hit], swapped[other]);
  EXPECT_NE(answer_digest(swapped), digest);
}

TEST(HitScopes, RejectsAHitInEmptySpace) {
  netclients::sim::WorldConfig config;
  config.scale = 1.0 / 4096;
  const auto world = netclients::sim::World::generate(config);
  const netclients::sim::Slash24Block* with_clients = nullptr;
  for (const auto& b : world.blocks()) {
    if (b.users + b.bot_users > 0) {
      with_clients = &b;
      break;
    }
  }
  ASSERT_NE(with_clients, nullptr);
  core::CampaignResult result;
  core::CacheHit hit;
  hit.query_scope = net::Prefix::from_slash24_index(with_clients->index);
  hit.return_scope = 24;
  result.hits.push_back(hit);
  EXPECT_TRUE(check_hit_scopes(world, result).empty());

  // Planted: a hit whose scope lies beyond every generated /24.
  core::CacheHit empty;
  empty.query_scope = net::Prefix(net::Ipv4Addr::from_octets(250, 1, 2, 0), 24);
  empty.return_scope = 24;
  result.hits.push_back(empty);
  EXPECT_FALSE(check_hit_scopes(world, result).empty());
}

}  // namespace
}  // namespace perfbench
