#pragma once

// Retry/timeout/backoff policy and per-PoP circuit breaking for the probe
// pipelines. The paper's campaign only worked because it survived a
// hostile substrate — timeouts, SERVFAIL spells, and an undocumented UDP
// rate limit that forced the whole pipeline onto TCP (§3.1.1); this module
// makes that resilience an explicit, tunable policy.
//
// Determinism contract: backoff jitter is keyed by (policy seed, query
// identity, attempt) through net::stable_seed — never by wall clock or
// thread identity — and each CircuitBreaker is confined to one pipeline
// shard, so faulty runs are byte-identical at any REPRO_THREADS.

#include <cstdint>
#include <vector>

#include "googledns/google_dns.h"
#include "net/sim_time.h"

namespace netclients::core::resilience {

/// Bounded attempts with exponential backoff and deterministic jitter,
/// plus the per-transport timeouts the backoff waits out.
struct RetryPolicy {
  /// Total tries per query, the first attempt included. <= 1 disables
  /// retries entirely.
  int max_attempts = 3;
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 2.0;
  /// Fraction of each backoff replaced by deterministic jitter: the wait
  /// is backoff * (1 - f + f * u) with u drawn from the query's key.
  double jitter_fraction = 0.5;
  /// How long a probe waits before declaring a timeout, per transport
  /// (UDP answers fast or never; TCP rides a handshake).
  double udp_timeout_seconds = 2.0;
  double tcp_timeout_seconds = 4.0;
  /// Mirror the paper's forced migration: after `escalation_threshold`
  /// consecutive rate-limited or timed-out UDP answers on one flow, the
  /// flow switches to TCP for the rest of the run. Off by default so the
  /// stock UDP-vs-TCP ablation keeps its meaning; the operator opts in.
  bool escalate_udp_to_tcp = false;
  int escalation_threshold = 3;
  std::uint64_t seed = 0x7E7271;

  double timeout_for(googledns::Transport transport) const {
    return transport == googledns::Transport::kTcp ? tcp_timeout_seconds
                                                   : udp_timeout_seconds;
  }

  /// Backoff before retry `retry` (1 = first retry) of the query
  /// identified by `key`. Pure function of (seed, key, retry).
  double backoff_before(int retry, std::uint64_t key) const;
};

struct BreakerPolicy {
  /// Consecutive hard failures (timeout/SERVFAIL) that trip the breaker.
  /// <= 0 disables circuit breaking.
  int failure_threshold = 8;
  /// Sim-time the breaker stays open before admitting a trial probe.
  double open_seconds = 30.0;
};

/// Per-PoP circuit breaker. Single-threaded by design: each instance is
/// owned by the pipeline shard driving one PoP, so state transitions are
/// a pure function of that shard's (deterministic) probe sequence.
class CircuitBreaker {
 public:
  CircuitBreaker() = default;
  explicit CircuitBreaker(BreakerPolicy policy) : policy_(policy) {}

  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  /// Whether a probe may go out at `now`. While open, refusals are
  /// counted in skipped(); once the open window has elapsed, a trial
  /// probe is admitted (half-open).
  bool allow(net::SimTime now);
  void record_success();
  void record_failure(net::SimTime now);

  State state(net::SimTime now) const;
  /// Sim-time from which an open breaker admits its half-open trial.
  net::SimTime open_until() const { return open_until_; }
  std::uint64_t opened() const { return opened_; }
  std::uint64_t skipped() const { return skipped_; }

 private:
  BreakerPolicy policy_;
  int consecutive_failures_ = 0;
  bool open_ = false;
  net::SimTime open_until_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t skipped_ = 0;
};

/// Integer tallies of resilience events in one pipeline shard. Merged
/// across shards (commutative integer sums) and published to the obs
/// registry only when nonzero — a fault-free run registers no
/// `resilience.*` names at all, keeping its metrics export byte-identical
/// to a build without this layer.
struct RetryStats {
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t servfails = 0;
  std::uint64_t exhausted = 0;     // gave up after max_attempts
  std::uint64_t escalations = 0;   // UDP flows forced onto TCP
  std::uint64_t breaker_opened = 0;
  std::uint64_t breaker_skipped = 0;
  std::uint64_t requeued = 0;      // prefixes left for a later loop
  std::uint64_t upstream_failures = 0;  // scope-discovery edge
  /// Wall-clock the vantage points spent waiting out timeouts + backoff
  /// before retries. Reporting only: the simulation treats a retry as
  /// instantaneous on the cache clock (cache dynamics are pinned to the
  /// campaign schedule, not to per-probe stalls).
  std::uint64_t waited_ms = 0;

  void merge(const RetryStats& other);
  /// Folds per-shard tallies, walking `shards` in shard order. Every field
  /// is a commutative integer sum, so the total is independent of shard
  /// count and order — test_resilience asserts that independence; the
  /// campaign's merge is explicit about it by going through here.
  static RetryStats merge_shards(const std::vector<RetryStats>& shards);
  /// Registers `resilience.*` counters for the nonzero fields only.
  void publish() const;

  bool operator==(const RetryStats&) const = default;
};

}  // namespace netclients::core::resilience
