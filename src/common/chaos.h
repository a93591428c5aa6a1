// Deterministic chaos injection for the hardened campaign runtime.
//
// A chaos engine, when armed, answers one question at named fault-injection
// sites scattered through the store / checkpoint / fault-sim / stage-guard
// code: "should this operation fail right now?" Answers are drawn from a
// seeded counter-mode SplitMix64 stream — a pure function of (seed, site,
// per-site call ordinal) — so the same spec + seed reproduces the identical
// failure schedule on every run. All draws happen on the thread of control
// that reaches the site; the one multi-threaded site (worker-throw) is
// pre-drawn per shard by the control thread before workers spawn, so the
// schedule never depends on thread interleaving.
//
// Spec grammar (`--chaos`, `GPUSTL_CHAOS`):
//
//   spec  := rule (',' rule)*
//   rule  := site ['@' qualifier] ('=' probability | '#' nth)
//
// `probability` in [0,1] makes every matching draw fail independently with
// that probability; `#nth` (1-based) fails exactly the nth matching call —
// the precision tool tests use to hit, say, the second module's label
// stage. The qualifier matches the site's context string (the stage name
// for `deadline`); an empty qualifier matches every context.
//
// Sites:
//   store-read-short     cache entry read returns a truncated buffer
//   store-read-corrupt   cache entry read returns a flipped byte
//   store-write          cache entry write attempt fails
//   ckpt-write           checkpoint/state atomic write attempt fails
//   ckpt-truncate        checkpoint content is cut in half before writing
//   worker-throw         a fault-sim worker shard throws
//   deadline             a stage guard fails with deadline exhaustion
//   worker-kill          a distributed campaign worker SIGKILLs itself at
//                        the start of a claimed unit (claim left behind)
//   stale-claim          a worker abandons a just-made claim with a
//                        backdated mtime, forcing the steal path
//   conn-drop            a frame read/write finds the connection torn
//                        down abruptly (src/net: peer reset mid-stream)
//   partial-write        a frame write sends a prefix of the frame and
//                        then loses the connection (torn frame on the peer)
//   slow-peer            a frame write blows its write deadline as if
//                        the peer had stopped draining its receive buffer
//   handshake-fail       the server aborts a handshake after the
//                        greeting (transient auth-layer failure; the peer
//                        must treat it as retryable)
//
// Disabled (the default) costs one relaxed atomic pointer load per site —
// nothing is configured, drawn or logged.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gpustl::chaos {

enum class Site : int {
  kStoreReadShort = 0,
  kStoreReadCorrupt,
  kStoreWriteFail,
  kCheckpointWriteFail,
  kCheckpointTruncate,
  kWorkerThrow,
  kStageDeadline,
  kWorkerKill,
  kStaleClaim,
  kConnDrop,
  kPartialWrite,
  kSlowPeer,
  kHandshakeFail,
};
inline constexpr int kNumSites = 13;

/// Stable spec token for a site (see the grammar above).
std::string_view SiteName(Site site);

class ChaosEngine {
 public:
  /// Parses `spec` (grammar above). Throws gpustl::Error on a malformed
  /// spec, an unknown site, or a probability outside [0,1].
  ChaosEngine(std::string_view spec, std::uint64_t seed);

  /// Draws the fail/pass decision for one arrival at `site` with context
  /// `qualifier`. Deterministic in (seed, site, arrival ordinal).
  bool ShouldFail(Site site, std::string_view qualifier);

  std::uint64_t seed() const { return seed_; }

  /// Failures injected so far (observability for tests and reports).
  std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  struct Rule {
    Site site;
    std::string qualifier;  // empty = any context
    double probability = 0.0;
    std::uint64_t nth = 0;  // 1-based; 0 = probability mode
    std::atomic<std::uint64_t> matched{0};

    Rule() = default;
    Rule(const Rule& o)
        : site(o.site),
          qualifier(o.qualifier),
          probability(o.probability),
          nth(o.nth),
          matched(o.matched.load(std::memory_order_relaxed)) {}
  };

  std::uint64_t seed_;
  std::vector<Rule> rules_;
  std::array<std::atomic<std::uint64_t>, kNumSites> draws_{};
  std::atomic<std::uint64_t> injected_{0};
};

/// Arms the global engine (replacing any previous one). Throws on a bad
/// spec without touching the previously armed engine.
void Install(std::string_view spec, std::uint64_t seed);

/// Disarms and destroys the global engine. No-op when nothing is armed.
void Uninstall();

/// The armed engine, or nullptr. One relaxed atomic load.
ChaosEngine* Engine();

inline bool Armed() { return Engine() != nullptr; }

/// The one call injection sites make: false whenever chaos is disarmed.
/// Injected failures are logged to stderr (chaos runs are always explicit).
bool Fail(Site site, std::string_view qualifier = {});

/// Arms from GPUSTL_CHAOS / GPUSTL_CHAOS_SEED when set (seed defaults
/// to 1). Unset/empty GPUSTL_CHAOS leaves the engine disarmed.
void ConfigureFromEnv();

/// RAII arm/disarm for tests.
class ScopedChaos {
 public:
  ScopedChaos(std::string_view spec, std::uint64_t seed) {
    Install(spec, seed);
  }
  ~ScopedChaos() { Uninstall(); }
  ScopedChaos(const ScopedChaos&) = delete;
  ScopedChaos& operator=(const ScopedChaos&) = delete;
};

}  // namespace gpustl::chaos
