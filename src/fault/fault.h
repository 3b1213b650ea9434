#ifndef VAQ_FAULT_FAULT_H_
#define VAQ_FAULT_FAULT_H_

#include <cstdint>
#include <string>

namespace vaq {

/// Configuration of the deterministic fault layer (DESIGN.md §12): which
/// fault classes the storage/IO paths inject and at what rates. Disabled
/// by default — every consumer guards its hooks on `enabled`, so a
/// default-constructed spec costs one branch on the happy path.
///
/// All decisions downstream (`FaultInjector`) are pure hashes of
/// (seed, site, entity, attempt): the same spec against the same data
/// produces the same faults whatever the thread interleaving, so the
/// differential soak harness can replay a failing seed exactly.
struct FaultSpec {
  bool enabled = false;
  std::uint64_t seed = 0;
  /// Probability that a page read attempt fails with a (simulated)
  /// transient IO error. Hashed per (page, attempt): a retry of the same
  /// page redraws, so rate^(1+max_read_retries) is the chance a page is
  /// permanently unreadable under this spec.
  double read_error_rate = 0.0;
  /// Probability that a page read attempt delivers a corrupted frame
  /// (detected by the per-page checksum, then retried). Also hashed per
  /// (page, attempt); two *consecutive* corrupt deliveries quarantine the
  /// page (see `PageStore`).
  double corrupt_rate = 0.0;
  /// Fraction of pages that are persistently "slow": every cache miss on
  /// such a page pays `spike_ms` extra latency. Hashed per page (no
  /// attempt), modelling a degraded disk region — the tail-latency fault
  /// `bench_fault_tail` measures deadlines against.
  double slow_page_rate = 0.0;
  /// Extra latency of one slow-page miss or spiked fetch, in ms.
  double spike_ms = 1.0;
  /// Probability that one simulated object fetch (`SimulateFetchLatency`)
  /// spikes by `spike_ms`. Drawn per fetch call (sequence-hashed), so it
  /// perturbs latency distributions without touching results.
  double fetch_spike_rate = 0.0;
  /// Read-retry policy the storage layer applies while this spec is
  /// active: a transient fault is retried up to this many times with
  /// capped exponential backoff starting at `backoff_initial_ms` and
  /// doubling up to `backoff_max_ms`. An initial backoff of 0 retries
  /// immediately (the test default — retry *counts* stay observable
  /// without slowing the suite).
  int max_read_retries = 3;
  double backoff_initial_ms = 0.0;
  double backoff_max_ms = 10.0;

  /// Parses a comma-separated `key=value` spec, e.g.
  ///   "seed=42,read_error=0.01,corrupt=0.005,slow=0.01,spike_ms=5"
  /// Keys: seed, read_error, corrupt, slow, spike_ms, fetch_spike,
  /// retries, backoff_ms, backoff_max_ms. The returned spec is enabled
  /// (an empty string parses to a disabled spec). Throws
  /// `std::invalid_argument` on an unknown key or a malformed value.
  static FaultSpec Parse(const std::string& text);

  /// The spec of the `VAQ_FAULT_SPEC` environment variable (the hook the
  /// differential harnesses and CI fault legs use to run the whole
  /// existing test matrix under injected faults); disabled when the
  /// variable is unset or empty.
  static FaultSpec FromEnv();
};

/// Deterministic fault decisions over a `FaultSpec`.
///
/// Stateless by construction: every decision is a splitmix64-style hash
/// of (spec.seed, site, entity, attempt) mapped to [0, 1) and compared
/// against the site's rate. No internal counters, no RNG state — two
/// threads asking about the same (page, attempt) get the same answer, so
/// fault placement is a function of the spec and the data, never of the
/// schedule.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec) : spec_(spec) {}

  const FaultSpec& spec() const { return spec_; }

  /// Does read attempt `attempt` (0-based) of `page` fail transiently?
  bool ReadFails(std::uint64_t page, int attempt) const {
    return Decide(kSiteRead, page, attempt, spec_.read_error_rate);
  }

  /// Does read attempt `attempt` of `page` deliver corrupted bytes?
  bool CorruptsFrame(std::uint64_t page, int attempt) const {
    return Decide(kSiteCorrupt, page, attempt, spec_.corrupt_rate);
  }

  /// Is `page` in the persistently slow set?
  bool SlowPage(std::uint64_t page) const {
    return Decide(kSiteSlow, page, 0, spec_.slow_page_rate);
  }

  /// Does the `n`-th simulated fetch spike?
  bool FetchSpikes(std::uint64_t fetch) const {
    return Decide(kSiteSpike, fetch, 0, spec_.fetch_spike_rate);
  }

  /// The capped exponential backoff before retry `attempt` (1-based), in
  /// ms: backoff_initial_ms * 2^(attempt-1), capped at backoff_max_ms.
  double BackoffMs(int attempt) const;

  /// The raw decision hash in [0, 1) — exposed so determinism (same
  /// inputs, same draw; independent sites, independent draws) is testable
  /// directly.
  static double Draw(std::uint64_t seed, std::uint64_t site,
                     std::uint64_t entity, std::uint64_t attempt);

 private:
  // Site tags keep the per-site hash streams independent: a page that
  // draws a read error does not thereby draw corruption too. Tag 0x4 is
  // unused; the others keep their values so a seed replays the same
  // faults.
  static constexpr std::uint64_t kSiteRead = 0x1;
  static constexpr std::uint64_t kSiteCorrupt = 0x2;
  static constexpr std::uint64_t kSiteSlow = 0x3;
  static constexpr std::uint64_t kSiteSpike = 0x5;

  bool Decide(std::uint64_t site, std::uint64_t entity, std::uint64_t attempt,
              double rate) const {
    if (rate <= 0.0) return false;
    return Draw(spec_.seed, site, entity, attempt) < rate;
  }

  FaultSpec spec_;
};

}  // namespace vaq

#endif  // VAQ_FAULT_FAULT_H_
