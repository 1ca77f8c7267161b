#pragma once

// The serial oracle for every Chromium scan parity check: two plain loops
// over TraceRecords into a CountMinSketch, keyed through DnsName labels
// and net::stable_hash. It never calls ChromiumCounter, so a parity check
// against it tests the scan instead of comparing the scan with itself.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "core/chromium/chromium.h"
#include "core/chromium/sketch.h"
#include "net/rng.h"
#include "net/sim_time.h"
#include "roots/trace.h"

namespace netclients {

inline core::ChromiumResult reference_scan(
    const std::vector<roots::TraceRecord>& records,
    const core::ChromiumOptions& options) {
  // The signature: one label of 7-15 letters (DnsName labels are lowercase).
  const auto matches = [](const roots::TraceRecord& rec) {
    if (!rec.qname.is_single_label()) return false;
    const std::string& label = rec.qname.labels().front();
    return label.size() >= 7 && label.size() <= 15 &&
           std::all_of(label.begin(), label.end(),
                       [](char c) { return c >= 'a' && c <= 'z'; });
  };
  const auto key = [](const roots::TraceRecord& rec) {
    return net::hash_combine(
        net::stable_hash(rec.qname.labels().front()),
        static_cast<std::uint64_t>(rec.timestamp / net::kDay));
  };
  const auto threshold = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(std::lround(
             options.daily_collision_threshold * options.sample_rate)));

  core::CountMinSketch sketch(options.sketch_width, options.sketch_depth,
                              options.seed);
  for (const auto& rec : records) {
    if (matches(rec)) sketch.add(key(rec));
  }
  core::ChromiumResult result;
  std::map<std::uint32_t, std::uint64_t> counts;
  for (const auto& rec : records) {
    ++result.records_scanned;
    if (!matches(rec)) continue;
    ++result.signature_matches;
    if (sketch.estimate(key(rec)) >= threshold) {
      ++result.rejected_collisions;
    } else {
      ++counts[rec.source.value()];
    }
  }
  const double scale = 1.0 / options.sample_rate;
  for (const auto& [source, count] : counts) {
    result.probes_by_resolver[source] = static_cast<double>(count) * scale;
  }
  return result;
}

/// Bit-identical scan results: the same integers and the same
/// (integer × scale) doubles, not approximations. Skip counts are not
/// compared — the reference only sees the records that parsed.
inline bool same_scan(const core::ChromiumResult& a,
                      const core::ChromiumResult& b) {
  return a.records_scanned == b.records_scanned &&
         a.signature_matches == b.signature_matches &&
         a.rejected_collisions == b.rejected_collisions &&
         a.probes_by_resolver == b.probes_by_resolver;
}

}  // namespace netclients
