// The benchmark's inputs: the gate-level modules and the paper's STL.
//
// The STL is the one bench_stl_summary compacts: IMM, MEM and CNTRL on the
// Decoder Unit, TPGEN and RAND on the SP core, SFU_IMM (patterns reversed)
// on the SFU, plus two carried control-unit PTPs. TPGEN and SFU_IMM come
// from ATPG (~40 s), so `perfbench gen` builds the STL once and stores it as
// GPTP files with a manifest of plan-entry fingerprints; runs load those
// files and check every fingerprint. The ATPG-derived PTPs are the same for
// every seed. The pseudorandom PTPs are the stored ones for the default
// seed 0 and are regenerated from any other seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atpg/podem.h"
#include "compact/campaign_plan.h"
#include "compact/stl_campaign.h"
#include "netlist/netlist.h"

namespace perfbench {

/// The modules a campaign covers, with their shared fault data. The STL
/// has no FP32 entry, but gpustlc and gpustld campaigns include the module
/// (its fault list shows in the report's totals), so these do too.
struct Modules {
  gpustl::netlist::Netlist du;
  gpustl::netlist::Netlist sp;
  gpustl::netlist::Netlist sfu;
  gpustl::netlist::Netlist fp32;
  gpustl::compact::ModulePrepSet preps;

  const gpustl::netlist::Netlist& For(gpustl::trace::TargetModule t) const;
  const gpustl::compact::ModulePrep& PrepFor(
      gpustl::trace::TargetModule t) const;
};

/// Builds the netlists and their ModulePrep.
std::unique_ptr<Modules> BuildModules();

/// `base` for the default seed 0, otherwise a mix of `base` and `seed`.
std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t seed);

/// The fixture's TPGEN ATPG settings (SP core), shared with atpg_tpgen.
gpustl::atpg::AtpgOptions TpgenAtpgOptions();
/// The fixture's Rng seed for the TPGEN ATPG run.
inline constexpr std::uint64_t kTpgenAtpgSeed = 0x7B6E;

/// Builds the STL for `seed` (ATPG included) and writes it to `dir`:
/// one GPTP per entry plus `stl.txt`, the manifest with fingerprints.
void GenerateStl(const Modules& modules, std::uint64_t seed,
                 const std::string& dir);

/// Loads the STL for `seed` from the files `GenerateStl` wrote for seed 0,
/// checking each against its recorded fingerprint. Throws on a mismatch or
/// a missing file.
std::vector<gpustl::compact::PlanEntry> LoadStl(const std::string& dir,
                                                std::uint64_t seed);

/// Fresh IMM, MEM and CNTRL variants for the Decoder Unit from `seed`,
/// sized like the STL's.
std::vector<gpustl::compact::PlanEntry> DuVariants(std::uint64_t seed);

}  // namespace perfbench
