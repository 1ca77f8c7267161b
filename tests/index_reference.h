#pragma once

// The serial oracle for every serving-index parity check: a radix-trie
// longest-prefix match built straight from the epochs with the union
// rule — the first occurrence of a prefix supplies its asn and country,
// later occurrences add volume and OR domain masks, in epoch order. It
// never calls ClientIndex (neither its merge nor its slot table), so a
// parity check against it tests the index instead of comparing the
// index with itself.

#include <span>

#include "core/serve/serve.h"
#include "core/snapshot/snapshot.h"
#include "net/prefix_trie.h"

namespace netclients {

class IndexReference {
 public:
  explicit IndexReference(
      std::span<const core::snapshot::EpochRecord> epochs) {
    for (const auto& epoch : epochs) {
      for (const auto& entry : epoch.prefixes) {
        core::serve::LookupResult merged;
        if (const auto* seen = trie_.find(entry.prefix)) {
          merged = *seen;
          merged.volume += entry.volume;
          merged.domain_mask |= entry.domain_mask;
        } else {
          merged.active = true;
          merged.prefix = entry.prefix;
          merged.volume = entry.volume;
          merged.asn = entry.asn;
          merged.country = entry.country;
          merged.domain_mask = entry.domain_mask;
        }
        trie_.insert(entry.prefix, merged);
      }
    }
  }

  core::serve::LookupResult lookup(net::Ipv4Addr addr) const {
    const auto match = trie_.longest_match(addr);
    return match ? *match->second : core::serve::LookupResult{};
  }

 private:
  net::PrefixTrie<core::serve::LookupResult> trie_;
};

}  // namespace netclients
