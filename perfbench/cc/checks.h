#pragma once

// The benchmark's own correctness checks, written apart from the code
// they check:
//
//  * `is_signature_label` — the Chromium probe shape from the paper's
//    §3.2.1 (one label of 7-15 ASCII letters), without calling
//    core::matches_chromium_signature;
//  * `ExactDailyCounter` — exact per-(name, day) counts of matching
//    records, the ground truth a count-min sketch over-approximates;
//  * `expected_answer` — the served answer for an address under an epoch
//    window, recomputed from the generator's prefixes (gen.h);
//  * `check_hit_scopes` — every cache hit's scope holds a /24 where the
//    world places clients.
//
// Each check returns a list of problems (empty = passed) so the runner
// can print them and fail the run.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cacheprobe/cacheprobe.h"
#include "core/chromium/chromium.h"
#include "core/serve/serve.h"
#include "dns/name.h"
#include "gen.h"
#include "sim/world.h"

namespace perfbench {

using Problems = std::vector<std::string>;

/// True for a single DNS label of 7 to 15 ASCII letters (either case).
bool is_signature_label(std::string_view label);
/// True for a one-label name whose label is a signature label.
bool is_signature_name(const netclients::dns::DnsName& name);

/// Exact counts of signature-matching records per (lowercased name, day),
/// and what an exact collision filter would attribute to each source.
class ExactDailyCounter {
 public:
  /// A counter with no spill file: its finish() reports every match lost.
  ExactDailyCounter() = default;
  /// Appends the per-match records to the file `spill_path` (created,
  /// removed by finish()) rather than holding them, so that the counter
  /// adds nothing to the resident set while a capture is written.
  explicit ExactDailyCounter(const std::string& spill_path);

  /// Feeds one record of the capture. Every record must be fed, in any
  /// order; non-matching ones only advance `records()`.
  void add(const netclients::dns::DnsName& name, double timestamp,
           std::uint32_t source);

  std::uint64_t records() const { return records_; }
  std::uint64_t matches() const { return match_count_; }

  /// Counts every (name, day) exactly and derives, per source, how many
  /// matches an exact filter at the paper's 7-per-day collision
  /// threshold (scaled by `sample_rate`) keeps, then releases the
  /// per-match records. Call once, after the last add().
  void finish(double sample_rate);

  /// Checks a scan of exactly the fed records (after finish()):
  ///  * every record scanned, none skipped;
  ///  * signature matches equal this counter's;
  ///  * every attributed source sent matching records;
  ///  * no source is attributed more than an exact filter would allow
  ///    (a count-min sketch never undercounts, so it can only reject
  ///    more names than the exact filter does).
  Problems check(const netclients::core::ChromiumResult& result) const;

 private:
  struct Match {
    std::uint64_t lo = 0;  // letters 0-11, 5 bits each
    std::uint64_t hi = 0;  // letters 12-14, length, day
    std::uint32_t source = 0;
  };
  std::uint64_t records_ = 0;
  std::uint64_t match_count_ = 0;
  std::string spill_path_;
  bool spill_lost_ = false;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> spill_{nullptr,
                                                         &std::fclose};
  double sample_rate_ = 1.0;
  std::unordered_map<std::uint32_t, std::uint64_t> allowed_;
  std::unordered_set<std::uint32_t> sources_;
};

/// The answer an index over epochs [latest - count + 1, latest] of `u`
/// must give for `addr`: volumes summed and domain masks OR-ed over the
/// epochs holding the covering prefix; a miss (default LookupResult) when
/// no prefix covers it or no epoch of the window holds that prefix.
netclients::core::serve::LookupResult expected_answer(
    const Universe& u, net::Ipv4Addr addr, std::uint32_t latest,
    std::size_t count);

/// Number of answers in `got` that differ from expected_answer.
std::size_t count_mismatches(
    const Universe& u, std::span<const net::Ipv4Addr> addrs,
    const netclients::core::serve::LookupResult* got, std::uint32_t latest,
    std::size_t count);

/// 64-bit digest of a batch of answers, field by field, so a batch can be
/// checked after the fact without keeping its answers.
std::uint64_t answer_digest(
    std::span<const netclients::core::serve::LookupResult> answers);

/// answer_digest of the model's answers (expected_answer) for `addrs`.
std::uint64_t model_digest(const Universe& u,
                           std::span<const net::Ipv4Addr> addrs,
                           std::uint32_t latest, std::size_t count);

/// Every hit's cache block (the query scope widened to the returned scope)
/// holds at least one /24 where `world` places clients: a hit needs a
/// client arrival rate above zero.
Problems check_hit_scopes(const netclients::sim::World& world,
                          const netclients::core::CampaignResult& result);

}  // namespace perfbench
