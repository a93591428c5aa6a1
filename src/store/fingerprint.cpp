#include "store/fingerprint.h"

#include "common/error.h"

namespace gpustl::store {

Hash128 FingerprintPatterns(const netlist::PatternSet& patterns) {
  Hasher128 h;
  h.AddString("gpustl-patterns-v1");
  h.AddU32(static_cast<std::uint32_t>(patterns.width()));
  h.AddU64(patterns.size());
  const std::size_t words = patterns.words_per_pattern();
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    h.AddU64(patterns.cc(p));
    const std::uint64_t* row = patterns.Row(p);
    for (std::size_t w = 0; w < words; ++w) h.AddU64(row[w]);
  }
  return h.Finish();
}

Hash128 FingerprintFaults(const std::vector<fault::Fault>& faults) {
  Hasher128 h;
  h.AddString("gpustl-faults-v1");
  h.AddU64(faults.size());
  for (const fault::Fault& f : faults) {
    h.AddU32(f.gate);
    h.AddU32(static_cast<std::uint32_t>(static_cast<std::int32_t>(f.pin)));
    h.AddBool(f.sa1);
  }
  return h.Finish();
}

Hash128 FingerprintMask(const BitVec* mask) {
  Hasher128 h;
  h.AddString("gpustl-mask-v1");
  h.AddBool(mask != nullptr);
  if (mask != nullptr) {
    h.AddU64(mask->size());
    for (const std::uint64_t w : mask->Words()) h.AddU64(w);
  }
  return h.Finish();
}

StoreKey FaultSimKeyWith(const netlist::Netlist& nl,
                         const netlist::PatternSet& patterns,
                         const Hash128& faults_fp, const BitVec* skip,
                         bool drop_detected, SimModel model) {
  GPUSTL_ASSERT(nl.frozen(), "fault-sim key needs a frozen netlist");
  Hasher128 h;
  h.AddString("gpustl-fsim-v1");
  h.AddU32(static_cast<std::uint32_t>(model));
  h.AddBool(drop_detected);
  h.AddHash(nl.fingerprint());
  h.AddHash(faults_fp);
  h.AddHash(FingerprintPatterns(patterns));
  h.AddHash(FingerprintMask(skip));
  return h.Finish();
}

StoreKey ValidationKey(const netlist::Netlist& nl,
                       const netlist::PatternSet& patterns,
                       const Hash128& faults_fp, SimModel model) {
  GPUSTL_ASSERT(nl.frozen(), "validation key needs a frozen netlist");
  Hasher128 h;
  h.AddString("gpustl-validate-v1");
  h.AddU32(static_cast<std::uint32_t>(model));
  h.AddHash(nl.fingerprint());
  h.AddHash(faults_fp);
  h.AddHash(FingerprintPatterns(patterns));
  return h.Finish();
}

StoreKey FaultSimKey(const netlist::Netlist& nl,
                     const netlist::PatternSet& patterns,
                     const std::vector<fault::Fault>& faults,
                     const BitVec* skip, bool drop_detected, SimModel model) {
  return FaultSimKeyWith(nl, patterns, FingerprintFaults(faults), skip,
                         drop_detected, model);
}

}  // namespace gpustl::store
