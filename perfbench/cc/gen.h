#pragma once

// Synthetic serving inputs for the `serve` and `wire` workloads: a
// universe of disjoint prefixes and a chain of epochs over it. Every value
// is a pure function of (seed, epoch, prefix index), so the answer model
// in checks.h can recompute any epoch's content without storing it.

#include <cstdint>
#include <vector>

#include "core/serve/serve.h"
#include "core/serve/workload.h"
#include "core/snapshot/snapshot.h"
#include "net/ipv4.h"
#include "net/prefix.h"

namespace perfbench {

namespace net = netclients::net;

/// Addresses the generator places prefixes in: [1.0.0.0, 224.0.0.0).
inline constexpr std::uint32_t kSpaceBegin = 1u << 24;
inline constexpr std::uint32_t kSpaceEnd = 224u << 24;

/// Prefix-length mix, in thousandths: /16, /17-/20, /21-/23, /24, /25-/28.
///
/// The /24 share is the one of the `measure` workload's two epochs
/// together (the traced run prints their mix: about 50% /24, 32% /17-/20,
/// 17% /21-/23 and 1% /16 at seed 1). Their /16-/23 shares are cut to
/// 20% here, because at the measured shares no more than about 390k
/// disjoint prefixes fit in routed space — too few for an index larger
/// than the last-level cache. The other 30% are /25-/28, which the
/// measured epochs lack: they fill part of a /24, so lookups in them take
/// the index's mixed-slot path rather than the direct /24 slot.
struct LengthMix {
  int slash16 = 2;
  int slash17_20 = 20;
  int slash21_23 = 180;
  int slash24 = 500;  // the rest (298) are /25-/28
};

/// Disjoint prefixes spread over routed space, sorted by address. Every
/// prefix is /16 or longer, so the prefix covering an address always
/// starts in that address's /16 — `bucket` indexes the first prefix of
/// each /16 for the model's lookups.
struct Universe {
  std::uint64_t seed = 0;
  /// The address range prefixes (and miss queries) are drawn from.
  std::uint32_t space_begin = kSpaceBegin;
  std::uint32_t space_end = kSpaceEnd;
  std::vector<net::Prefix> prefixes;
  /// prefix indices, most voluminous first (the zipf ranking).
  std::vector<std::uint32_t> by_rank;
  /// rank of each prefix index (inverse of by_rank).
  std::vector<std::uint32_t> rank_of;
  /// bucket[h] = first prefix index whose /16 is >= h; size 65537.
  std::vector<std::uint32_t> bucket;

  std::size_t size() const { return prefixes.size(); }
  /// Index of the prefix covering `addr`, or -1 for unpopulated space.
  std::int64_t find(net::Ipv4Addr addr) const;
};

/// Builds about `target` prefixes (fewer only if routed space runs out).
Universe make_universe(std::uint64_t seed, std::size_t target,
                       LengthMix mix = {},
                       std::uint32_t space_begin = kSpaceBegin,
                       std::uint32_t space_end = kSpaceEnd);

/// Epoch content of prefix `i` in epoch `epoch`.
bool present(const Universe& u, std::uint32_t epoch, std::size_t i);
/// Integer-valued, so sums across epochs are exact in any order.
double volume(const Universe& u, std::uint32_t epoch, std::size_t i);
std::uint32_t domain_mask(const Universe& u, std::uint32_t epoch,
                          std::size_t i);
std::uint32_t asn_of(const Universe& u, std::size_t i);
std::uint16_t country_of(const Universe& u, std::size_t i);

/// The epoch record the service publishes for `epoch` (aggregates left
/// empty: the index derives its own from the entries).
netclients::core::snapshot::EpochRecord make_epoch_record(
    const Universe& u, std::uint32_t epoch);

/// Query mix: zipf over prefix volume rank, plus a uniform share drawn
/// from unpopulated space.
struct QueryMix {
  double zipf_exponent = 0;
  double miss_share = 0;
};

/// The mix of the program's own serving driver: WorkloadOptions'
/// prefix_zipf and miss_fraction defaults.
inline QueryMix query_mix() {
  const netclients::core::serve::WorkloadOptions driver;
  return QueryMix{driver.prefix_zipf, driver.miss_fraction};
}

/// `count` addresses drawn from the mix with a stream keyed by `stream`.
std::vector<net::Ipv4Addr> make_queries(const Universe& u, QueryMix mix,
                                        std::size_t count,
                                        std::uint64_t stream);

/// Stable 64-bit key for (seed, tag, a, b): the one hash every generator
/// in the benchmark derives from.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag,
                     std::uint64_t a = 0, std::uint64_t b = 0);

}  // namespace perfbench
