#include "gen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "net/rng.h"
#include "net/zipf.h"

namespace perfbench {

namespace snapshot = netclients::core::snapshot;
using netclients::net::Rng;

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
                     std::uint64_t b) {
  using netclients::net::hash_combine;
  return hash_combine(hash_combine(hash_combine(seed, tag), a), b);
}

namespace {

enum Tag : std::uint64_t {
  kTagLayout = 1,
  kTagRank = 2,
  kTagPresent = 3,
  kTagVolume = 4,
  kTagMask = 5,
  kTagAttr = 6,
  kTagQuery = 7,
};

std::uint8_t draw_length(Rng& rng, const LengthMix& mix) {
  const auto r = static_cast<int>(rng.below(1000));
  if (r < mix.slash16) return 16;
  if (r < mix.slash16 + mix.slash17_20)
    return static_cast<std::uint8_t>(17 + rng.below(4));
  if (r < mix.slash16 + mix.slash17_20 + mix.slash21_23)
    return static_cast<std::uint8_t>(21 + rng.below(3));
  if (r < mix.slash16 + mix.slash17_20 + mix.slash21_23 + mix.slash24)
    return 24;
  return static_cast<std::uint8_t>(25 + rng.below(4));
}

}  // namespace

std::int64_t Universe::find(net::Ipv4Addr addr) const {
  const std::uint32_t h = addr.value() >> 16;
  auto first = prefixes.begin() + bucket[h];
  auto last = prefixes.begin() + bucket[h + 1];
  // Last prefix in the bucket starting at or below addr.
  auto it = std::upper_bound(first, last, addr.value(),
                             [](std::uint32_t v, const net::Prefix& p) {
                               return v < p.base().value();
                             });
  if (it == first) return -1;
  --it;
  return it->contains(addr) ? it - prefixes.begin() : -1;
}

Universe make_universe(std::uint64_t seed, std::size_t target,
                       LengthMix mix, std::uint32_t space_begin,
                       std::uint32_t space_end) {
  Universe u;
  u.seed = seed;
  u.space_begin = space_begin;
  u.space_end = space_end;
  u.prefixes.reserve(target);
  Rng rng(derive(seed, kTagLayout));
  // Mean gap sized so `target` prefixes of the mix's mean footprint
  // (size plus alignment waste, ~1.5x size) fill the space.
  const double mean_size = mix.slash16 * 65536.0 + mix.slash17_20 * 15360.0 +
                           mix.slash21_23 * 1194.7 + mix.slash24 * 256.0 +
                           (1000 - mix.slash16 - mix.slash17_20 -
                            mix.slash21_23 - mix.slash24) * 60.0;
  const double space = static_cast<double>(space_end - space_begin);
  const double mean_gap = std::max(
      1.0, space / static_cast<double>(target) - 1.5 * mean_size / 1000.0);
  std::uint64_t cursor = space_begin;
  while (u.prefixes.size() < target) {
    const std::uint8_t length = draw_length(rng, mix);
    const std::uint64_t size = std::uint64_t{1} << (32 - length);
    cursor = (cursor + size - 1) & ~(size - 1);
    if (cursor + size > space_end) break;
    u.prefixes.emplace_back(net::Ipv4Addr(static_cast<std::uint32_t>(cursor)),
                            length);
    cursor += size + static_cast<std::uint64_t>(rng.exponential(1.0 / mean_gap));
  }
  const std::size_t n = u.prefixes.size();
  u.by_rank.resize(n);
  std::iota(u.by_rank.begin(), u.by_rank.end(), 0u);
  Rng shuffle(derive(seed, kTagRank));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(u.by_rank[i - 1], u.by_rank[shuffle.below(i)]);
  }
  u.rank_of.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    u.rank_of[u.by_rank[r]] = static_cast<std::uint32_t>(r);
  }
  u.bucket.assign(65537, 0);
  std::size_t i = 0;
  for (std::uint32_t h = 0; h <= 65536; ++h) {
    while (i < n && (u.prefixes[i].base().value() >> 16) < h) ++i;
    u.bucket[h] = static_cast<std::uint32_t>(i);
  }
  return u;
}

bool present(const Universe& u, std::uint32_t epoch, std::size_t i) {
  // About 90% of prefixes in any epoch: consecutive epochs overlap
  // heavily but not exactly, as campaign epochs do.
  return derive(u.seed, kTagPresent, epoch, i) % 10 != 0;
}

double volume(const Universe& u, std::uint32_t epoch, std::size_t i) {
  // Zipf-shaped base by rank, with the query mix's exponent, plus a small
  // per-epoch jitter; integers.
  static const double exponent = query_mix().zipf_exponent;
  const double rank = static_cast<double>(u.rank_of[i]) + 1.0;
  const double base = std::floor(1e6 / std::pow(rank, exponent));
  return base + 1.0 +
         static_cast<double>(derive(u.seed, kTagVolume, epoch, i) % 64);
}

std::uint32_t domain_mask(const Universe& u, std::uint32_t epoch,
                          std::size_t i) {
  const std::uint64_t h = derive(u.seed, kTagMask, epoch, i);
  return static_cast<std::uint32_t>(1u << (h % 5)) |
         static_cast<std::uint32_t>((h >> 8) & 0x1Fu);
}

std::uint32_t asn_of(const Universe& u, std::size_t i) {
  return 1 + static_cast<std::uint32_t>(derive(u.seed, kTagAttr, i) % 64000);
}

std::uint16_t country_of(const Universe& u, std::size_t i) {
  return static_cast<std::uint16_t>(derive(u.seed, kTagAttr, i, 1) % 240);
}

snapshot::EpochRecord make_epoch_record(const Universe& u,
                                        std::uint32_t epoch) {
  snapshot::EpochRecord record;
  record.epoch_id = epoch;
  record.world_seed = u.seed;
  record.domain_count = 5;
  record.prefixes.reserve(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (!present(u, epoch, i)) continue;
    snapshot::PrefixEntry entry;
    entry.prefix = u.prefixes[i];
    entry.volume = volume(u, epoch, i);
    entry.asn = asn_of(u, i);
    entry.country = country_of(u, i);
    entry.domain_mask = domain_mask(u, epoch, i);
    record.prefixes.push_back(entry);
  }
  record.totals.slash24_lower = record.prefixes.size();
  return record;
}

std::vector<net::Ipv4Addr> make_queries(const Universe& u, QueryMix mix,
                                        std::size_t count,
                                        std::uint64_t stream) {
  std::vector<net::Ipv4Addr> out;
  out.reserve(count);
  Rng rng(derive(u.seed, kTagQuery, stream));
  const netclients::net::ZipfSampler zipf(u.size(), mix.zipf_exponent);
  while (out.size() < count) {
    if (rng.uniform() < mix.miss_share) {
      // Rejection-sample unpopulated space.
      for (;;) {
        const auto a = static_cast<std::uint32_t>(
            u.space_begin + rng.below(u.space_end - u.space_begin));
        if (u.find(net::Ipv4Addr(a)) < 0) {
          out.emplace_back(a);
          break;
        }
      }
    } else {
      const net::Prefix p = u.prefixes[u.by_rank[zipf.sample(rng)]];
      const std::uint32_t span = ~net::Prefix::mask(p.length());
      out.emplace_back(p.base().value() |
                       static_cast<std::uint32_t>(rng.below(std::uint64_t{span} + 1)));
    }
  }
  return out;
}

}  // namespace perfbench
