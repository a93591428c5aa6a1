// Cache-key derivation for the content-addressed result store.
//
// A fault-simulation run is a pure function of (module topology, applied
// pattern sequence, fault list, cross-PTP skip mask, fault model, dropping
// mode). Everything else in FaultSimOptions — thread count, backend — is
// bit-identical by construction, so it is deliberately EXCLUDED from the
// key: a result computed with 8 threads on avx2 serves a serial scalar run,
// and vice versa.
//
// Each component is fingerprinted independently with a domain-tagged
// Hasher128 and the component digests are combined into the final
// StoreKey. Field orders are frozen by docs/FORMATS.md; bump the domain
// tag ("gpustl-fsim-v1", ...) when a component's semantics change so stale
// entries miss instead of aliasing.
#pragma once

#include <vector>

#include "common/bitops.h"
#include "common/hash.h"
#include "fault/fault.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"

namespace gpustl::store {

/// The store's 128-bit content address.
using StoreKey = Hash128;

/// Fault model selector folded into the key (stuck-at results never serve
/// transition queries: same sites, different detection semantics).
enum class SimModel : std::uint32_t { kStuckAt = 0, kTransition = 1 };

/// Digest of a pattern sequence: width, order, cc stamps, bit contents.
Hash128 FingerprintPatterns(const netlist::PatternSet& patterns);

/// Digest of a fault list: site addressing and polarity, in list order.
Hash128 FingerprintFaults(const std::vector<fault::Fault>& faults);

/// Digest of a skip mask; nullptr (simulate everything) gets a distinct
/// digest from an all-zero mask of any size.
Hash128 FingerprintMask(const BitVec* mask);

/// The cache key for one fault-simulation run. `nl` must be frozen (the
/// key folds in nl.fingerprint()).
StoreKey FaultSimKey(const netlist::Netlist& nl,
                     const netlist::PatternSet& patterns,
                     const std::vector<fault::Fault>& faults,
                     const BitVec* skip, bool drop_detected, SimModel model);

/// Same, reusing a precomputed fault-list digest (the list is fixed per
/// module; campaigns fingerprint it once instead of per fault sim).
StoreKey FaultSimKeyWith(const netlist::Netlist& nl,
                         const netlist::PatternSet& patterns,
                         const Hash128& faults_fp, const BitVec* skip,
                         bool drop_detected, SimModel model);

}  // namespace gpustl::store
