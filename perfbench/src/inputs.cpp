#include "inputs.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "circuits/decoder_unit.h"
#include "circuits/fp32.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/error.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "isa/binary.h"
#include "stl/atpg_convert.h"
#include "stl/generators.h"

namespace perfbench {
namespace {

using gpustl::compact::PlanEntry;
using gpustl::isa::Program;
using gpustl::trace::TargetModule;

constexpr const char* kManifest = "stl.txt";

/// One STL entry as bench_stl_summary builds it.
struct EntrySpec {
  const char* name;
  Program (*generate)(int, std::uint64_t);  // null = ATPG-derived
  int sbs;
  std::uint64_t base_seed;
  TargetModule target;
  bool compactable;
  bool reverse;
};

constexpr EntrySpec kStl[] = {
    {"imm", gpustl::stl::GenerateImm, 110, 0xA11CE, TargetModule::kDecoderUnit,
     true, false},
    {"mem", gpustl::stl::GenerateMem, 105, 0xB0B, TargetModule::kDecoderUnit,
     true, false},
    {"cntrl", gpustl::stl::GenerateCntrl, 20, 0xC0FFEE,
     TargetModule::kDecoderUnit, true, false},
    {"tpgen", nullptr, 0, 0, TargetModule::kSpCore, true, false},
    {"rand", gpustl::stl::GenerateRand, 180, 0xDEAD, TargetModule::kSpCore,
     true, false},
    {"sfu_imm", nullptr, 0, 0, TargetModule::kSfu, true, true},
    // The uncompactable control-unit remainder, carried through unchanged.
    {"rem_a", gpustl::stl::GenerateCntrl, 14, 0xF00D,
     TargetModule::kDecoderUnit, false, false},
    {"rem_b", gpustl::stl::GenerateCntrl, 12, 0xFEED,
     TargetModule::kDecoderUnit, false, false},
};

PlanEntry MakePlanEntry(Program ptp, TargetModule target, bool compactable,
                        bool reverse) {
  PlanEntry pe;
  pe.entry.ptp = std::move(ptp);
  pe.entry.target = target;
  pe.entry.compactable = compactable;
  pe.entry.reverse_patterns = reverse;
  pe.target_token = std::string(gpustl::trace::TargetModuleName(target));
  pe.fp = gpustl::compact::FingerprintPlanEntry(pe.entry, pe.target_token);
  return pe;
}

Program Seeded(const EntrySpec& spec, std::uint64_t seed) {
  return spec.generate(spec.sbs, DeriveSeed(spec.base_seed, seed));
}

Program AtpgTpgen(const Modules& m) {
  const auto faults = gpustl::fault::CollapsedFaultList(m.sp);
  const auto run = gpustl::atpg::GeneratePatternSet(
      m.sp, faults, gpustl::Rng(kTpgenAtpgSeed), TpgenAtpgOptions());
  return gpustl::stl::ConvertSpPatterns(run.patterns, nullptr);
}

Program AtpgSfuImm(const Modules& m) {
  const auto faults = gpustl::fault::CollapsedFaultList(m.sfu);
  gpustl::atpg::AtpgOptions options;
  options.random_phase_patterns = 4096;
  options.backtrack_limit = 20;
  options.deterministic_fault_budget = 2500;
  options.pattern_fixup = [](std::uint64_t* row) {
    if ((row[0] & 0x7) > 5) row[0] &= ~0x4ull;
  };
  const auto run = gpustl::atpg::GeneratePatternSet(
      m.sfu, faults, gpustl::Rng(0x5F0), options);
  return gpustl::stl::ConvertSfuPatterns(run.patterns, nullptr);
}

}  // namespace

const gpustl::netlist::Netlist& Modules::For(TargetModule t) const {
  switch (t) {
    case TargetModule::kDecoderUnit: return du;
    case TargetModule::kSpCore: return sp;
    case TargetModule::kSfu: return sfu;
    case TargetModule::kFp32: return fp32;
  }
  throw gpustl::Error("perfbench: unknown module");
}

const gpustl::compact::ModulePrep& Modules::PrepFor(TargetModule t) const {
  switch (t) {
    case TargetModule::kDecoderUnit: return *preps.du;
    case TargetModule::kSpCore: return *preps.sp;
    case TargetModule::kSfu: return *preps.sfu;
    case TargetModule::kFp32: return *preps.fp32;
  }
  throw gpustl::Error("perfbench: unknown module");
}

std::unique_ptr<Modules> BuildModules() {
  auto m = std::make_unique<Modules>(
      Modules{gpustl::circuits::BuildDecoderUnit(),
              gpustl::circuits::BuildSpCore(), gpustl::circuits::BuildSfu(),
              gpustl::circuits::BuildFp32(), {}});
  m->preps.du = gpustl::compact::BuildModulePrep(m->du);
  m->preps.sp = gpustl::compact::BuildModulePrep(m->sp);
  m->preps.sfu = gpustl::compact::BuildModulePrep(m->sfu);
  m->preps.fp32 = gpustl::compact::BuildModulePrep(m->fp32);
  return m;
}

std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t seed) {
  if (seed == 0) return base;
  std::uint64_t z = base ^ (seed * 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

gpustl::atpg::AtpgOptions TpgenAtpgOptions() {
  // Keeps the micro-op and comparison fields inside the instruction-
  // expressible space, as the fixture's constrained ATPG run does.
  static constexpr int kSpOps[] = {0,  1,  2,  3,  4,  5,  6,  7,  9,
                                   10, 11, 12, 13, 14, 15, 16, 18, 34};
  gpustl::atpg::AtpgOptions options;
  options.random_phase_patterns = 1024;
  options.backtrack_limit = 50;
  options.pattern_fixup = [](std::uint64_t* row) {
    const auto uop = static_cast<int>(row[0] & 0x3F);
    const auto cmp = static_cast<int>((row[0] >> 6) & 0x7);
    bool valid = false;
    for (const int op : kSpOps) valid |= op == uop;
    if (!valid) {
      row[0] = (row[0] & ~0x3Full) |
               static_cast<std::uint64_t>(kSpOps[uop % std::size(kSpOps)]);
    }
    if (cmp > 5) row[0] &= ~(1ull << 8);
  };
  return options;
}

void GenerateStl(const Modules& modules, std::uint64_t seed,
                 const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::ostringstream manifest;
  manifest << "# perfbench STL, seed " << seed
           << ": <name> <file> <module> <compact|carry> <reverse|-> "
              "<atpg|seeded> <plan-entry fingerprint>\n";
  for (const EntrySpec& spec : kStl) {
    Program ptp = spec.generate != nullptr ? Seeded(spec, seed)
                  : spec.target == TargetModule::kSpCore
                      ? AtpgTpgen(modules)
                      : AtpgSfuImm(modules);
    const PlanEntry pe = MakePlanEntry(std::move(ptp), spec.target,
                                       spec.compactable, spec.reverse);
    const std::string file = std::string(spec.name) + ".gptp";
    std::ofstream out(dir + "/" + file, std::ios::binary | std::ios::trunc);
    gpustl::isa::SaveBinary(out, pe.entry.ptp);
    if (!out) throw gpustl::Error("perfbench: cannot write " + file);
    manifest << spec.name << ' ' << file << ' ' << pe.target_token << ' '
             << (spec.compactable ? "compact" : "carry") << ' '
             << (spec.reverse ? "reverse" : "-") << ' '
             << (spec.generate != nullptr ? "seeded" : "atpg") << ' '
             << pe.fp.ToHex() << '\n';
  }
  std::ofstream(dir + "/" + kManifest, std::ios::trunc) << manifest.str();
}

std::vector<PlanEntry> LoadStl(const std::string& dir, std::uint64_t seed) {
  std::ifstream in(dir + "/" + kManifest);
  if (!in) throw gpustl::Error("perfbench: no STL manifest in " + dir);
  std::vector<PlanEntry> plan;
  std::string line;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, file, module, mode, reverse, source, fp;
    fields >> name >> file >> module >> mode >> reverse >> source >> fp;
    if (index >= std::size(kStl) || name != kStl[index].name) {
      throw gpustl::Error("perfbench: unexpected manifest line: " + line);
    }
    const EntrySpec& spec = kStl[index++];
    std::ifstream ptp_in(dir + "/" + file, std::ios::binary);
    if (!ptp_in) throw gpustl::Error("perfbench: cannot read " + file);
    PlanEntry pe = MakePlanEntry(gpustl::isa::LoadBinary(ptp_in), spec.target,
                                 spec.compactable, spec.reverse);
    if (pe.fp.ToHex() != fp || pe.target_token != module) {
      throw gpustl::Error("perfbench: " + file +
                          " does not match its recorded fingerprint");
    }
    if (spec.generate != nullptr && seed != 0) {
      pe = MakePlanEntry(Seeded(spec, seed), spec.target, spec.compactable,
                         spec.reverse);
    }
    plan.push_back(std::move(pe));
  }
  if (index != std::size(kStl)) {
    throw gpustl::Error("perfbench: STL manifest is incomplete");
  }
  return plan;
}

std::vector<PlanEntry> DuVariants(std::uint64_t seed) {
  std::vector<PlanEntry> out;
  for (const EntrySpec& spec : kStl) {
    if (spec.target == TargetModule::kDecoderUnit && spec.compactable) {
      out.push_back(MakePlanEntry(Seeded(spec, seed), spec.target, true,
                                  false));
    }
  }
  return out;
}

}  // namespace perfbench
