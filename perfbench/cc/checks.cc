#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "net/rng.h"

namespace perfbench {

namespace core = netclients::core;

namespace {

bool ascii_letter(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/// Collision threshold in the sampled trace: the paper's 7 per day
/// scaled by the sample rate, never below 2 so that single sightings
/// (the common case for a random probe name) always count.
std::uint64_t sampled_threshold(double sample_rate) {
  return std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(std::llround(7.0 * sample_rate)));
}

}  // namespace

bool is_signature_label(std::string_view label) {
  if (label.size() < 7 || label.size() > 15) return false;
  return std::all_of(label.begin(), label.end(), ascii_letter);
}

bool is_signature_name(const netclients::dns::DnsName& name) {
  return name.labels().size() == 1 && is_signature_label(name.labels()[0]);
}

ExactDailyCounter::ExactDailyCounter(const std::string& spill_path)
    : spill_path_(spill_path), spill_(std::fopen(spill_path.c_str(), "wb+"),
                                      &std::fclose) {}

void ExactDailyCounter::add(const netclients::dns::DnsName& name,
                            double timestamp, std::uint32_t source) {
  ++records_;
  if (!is_signature_name(name)) return;
  const std::string& label = name.labels()[0];
  Match m;
  for (std::size_t i = 0; i < label.size(); ++i) {
    const std::uint64_t letter = static_cast<std::uint64_t>(
        (label[i] | 0x20) - 'a' + 1);
    if (i < 12) {
      m.lo |= letter << (5 * i);
    } else {
      m.hi |= letter << (5 * (i - 12));
    }
  }
  const auto day = static_cast<std::uint64_t>(timestamp / 86400.0);
  m.hi |= static_cast<std::uint64_t>(label.size()) << 15;
  m.hi |= day << 19;
  m.source = source;
  ++match_count_;
  if (spill_) std::fwrite(&m, sizeof m, 1, spill_.get());
}

void ExactDailyCounter::finish(double sample_rate) {
  sample_rate_ = sample_rate;
  allowed_.clear();
  sources_.clear();
  std::vector<Match> matches(match_count_);
  const bool read_back =
      spill_ && std::fflush(spill_.get()) == 0 &&
      (std::rewind(spill_.get()),
       std::fread(matches.data(), sizeof(Match), matches.size(),
                  spill_.get()) == matches.size());
  spill_.reset();
  if (!spill_path_.empty()) std::remove(spill_path_.c_str());
  if (!read_back) {
    spill_lost_ = true;
    matches.clear();
  }
  // Exact per-(name, day) counts: sort by key, count runs.
  std::sort(matches.begin(), matches.end(),
            [](const Match& a, const Match& b) {
              return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
            });
  const std::uint64_t threshold = sampled_threshold(sample_rate);
  for (std::size_t i = 0; i < matches.size();) {
    std::size_t j = i;
    while (j < matches.size() && matches[j].lo == matches[i].lo &&
           matches[j].hi == matches[i].hi) {
      ++j;
    }
    for (std::size_t k = i; k < j; ++k) {
      sources_.insert(matches[k].source);
      if (j - i < threshold) ++allowed_[matches[k].source];
    }
    i = j;
  }
}

Problems ExactDailyCounter::check(const core::ChromiumResult& result) const {
  Problems problems;
  if (spill_lost_) {
    problems.push_back("the exact counter's spill file could not be read back");
  }
  if (result.records_scanned != records_) {
    problems.push_back("records_scanned " +
                       std::to_string(result.records_scanned) + " != " +
                       std::to_string(records_) + " records written");
  }
  if (result.records_skipped != 0) {
    problems.push_back("records_skipped " +
                       std::to_string(result.records_skipped) + " != 0");
  }
  if (result.signature_matches != match_count_) {
    problems.push_back("signature_matches " +
                       std::to_string(result.signature_matches) + " != " +
                       std::to_string(match_count_) +
                       " by the independent matcher");
  }
  std::size_t foreign = 0;
  std::size_t over = 0;
  for (const auto& [source, probes] : result.probes_by_resolver) {
    if (!sources_.count(source)) ++foreign;
    const auto it = allowed_.find(source);
    const double bound =
        it == allowed_.end() ? 0.0 : static_cast<double>(it->second);
    // probes are counts scaled by 1/sample_rate; compare in counts.
    if (probes * sample_rate_ > bound + 1e-6) ++over;
  }
  if (foreign) {
    problems.push_back(std::to_string(foreign) +
                       " attributed resolver(s) sent no matching record");
  }
  if (over) {
    problems.push_back(std::to_string(over) +
                       " resolver(s) attributed more probes than the "
                       "exact per-day counts allow");
  }
  return problems;
}

core::serve::LookupResult expected_answer(const Universe& u,
                                          net::Ipv4Addr addr,
                                          std::uint32_t latest,
                                          std::size_t count) {
  core::serve::LookupResult r;
  const std::int64_t i = u.find(addr);
  if (i < 0 || count == 0) return r;
  const auto idx = static_cast<std::size_t>(i);
  const std::uint32_t first =
      latest + 1 >= count ? latest + 1 - static_cast<std::uint32_t>(count) : 0;
  for (std::uint32_t e = first; e <= latest; ++e) {
    if (!present(u, e, idx)) continue;
    r.active = true;
    r.volume += volume(u, e, idx);
    r.domain_mask |= domain_mask(u, e, idx);
  }
  if (!r.active) return core::serve::LookupResult{};
  r.prefix = u.prefixes[idx];
  r.asn = asn_of(u, idx);
  r.country = country_of(u, idx);
  return r;
}

std::size_t count_mismatches(const Universe& u,
                             std::span<const net::Ipv4Addr> addrs,
                             const core::serve::LookupResult* got,
                             std::uint32_t latest, std::size_t count) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (!(got[i] == expected_answer(u, addrs[i], latest, count))) ++bad;
  }
  return bad;
}

std::uint64_t answer_digest(
    std::span<const core::serve::LookupResult> answers) {
  // A multiply-rotate chain over three words per answer: each step is a
  // bijection of the state, so one changed field always changes the
  // digest, and it costs a few percent of a lookup.
  constexpr std::uint64_t kOdd = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h = answers.size();
  const auto step = [&](std::uint64_t word) {
    h = std::rotl((h ^ word) * kOdd, 31);
  };
  for (const core::serve::LookupResult& a : answers) {
    step(std::bit_cast<std::uint64_t>(a.volume));
    step((std::uint64_t{a.prefix.base().value()} << 32) |
         (std::uint64_t{a.prefix.length()} << 24) |
         (std::uint64_t{a.country} << 8) | std::uint64_t{a.active});
    step((std::uint64_t{a.asn} << 32) | a.domain_mask);
  }
  return netclients::net::mix64(h);
}

std::uint64_t model_digest(const Universe& u,
                           std::span<const net::Ipv4Addr> addrs,
                           std::uint32_t latest, std::size_t count) {
  std::vector<core::serve::LookupResult> answers;
  answers.reserve(addrs.size());
  for (const net::Ipv4Addr addr : addrs) {
    answers.push_back(expected_answer(u, addr, latest, count));
  }
  return answer_digest(answers);
}

Problems check_hit_scopes(const netclients::sim::World& world,
                          const core::CampaignResult& result) {
  Problems problems;
  const auto& blocks = world.blocks();
  std::size_t empty = 0;
  for (const core::CacheHit& hit : result.hits) {
    const std::uint8_t len =
        std::min(hit.return_scope, hit.query_scope.length());
    const net::Prefix block(hit.query_scope.base(), len);
    const std::uint32_t first = block.base().value() >> 8;
    const std::uint64_t last =
        (std::uint64_t{block.base().value()} +
         (std::uint64_t{1} << (32 - len)) - 1) >> 8;
    auto it = std::lower_bound(
        blocks.begin(), blocks.end(), first,
        [](const netclients::sim::Slash24Block& b, std::uint32_t v) {
          return b.index < v;
        });
    bool clients = false;
    for (; it != blocks.end() && it->index <= last; ++it) {
      if (it->users + it->bot_users > 0) {
        clients = true;
        break;
      }
    }
    if (!clients) ++empty;
  }
  if (empty) {
    problems.push_back(std::to_string(empty) + " of " +
                       std::to_string(result.hits.size()) +
                       " cache hits have no client /24 in their scope");
  }
  if (result.hits.empty()) problems.push_back("campaign found no cache hits");
  return problems;
}

}  // namespace perfbench
