// Engine backends for the PPSFP fault simulators.
//
// The fault-sim inner loop is width-parameterized: a *backend* fixes how
// many patterns one propagation word carries and how that word is evaluated.
//
//   scalar — one 64-bit machine word per block (fault/faultsim.cpp,
//            fault/transition.cpp): the portable fallback the runtime
//            dispatch selects when no SIMD extension is usable.
//   wide   — the width-parameterized engine (fault/engine_wide.h) at 4
//            lanes (256 patterns per block) compiled WITHOUT SIMD codegen
//            flags. Portable to any CPU; exists so the wide engine's lane
//            bookkeeping (ragged tails, carry chains) is
//            exercised on machines and CI runners without AVX2.
//   avx2   — the same 4-lane engine compiled with AVX2 codegen (one
//            256-bit vector op per bundle op). Compiled in only when the
//            toolchain accepts -mavx2; selected only when the CPU reports
//            AVX2. This is what `auto` resolves to on x86-64.
//   avx512 — the 8-lane instantiation (512 patterns per block) under
//            -mavx512f, compile-guarded the same way. Never chosen by
//            `auto` (explicit opt-in only: wider blocks help only when
//            enough patterns survive dropping to fill them).
//
// Every backend produces a bit-identical FaultSimResult — same
// first_detect, same per-pattern histogram, same mask — for every thread
// count. The backend is therefore a pure cost knob, excluded from
// result-store fingerprints exactly like num_threads (tests/test_backend.cpp
// holds every registered backend to the independent reference simulator
// of tests/reference_sim.h).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

namespace gpustl::fault {

enum class Backend {
  kAuto,    // runtime dispatch: best supported SIMD backend, else scalar
  kScalar,  // 64-bit engine, the portable fallback
  kWide,    // 4-lane wide engine, portable codegen
  kAvx2,    // 4-lane wide engine, AVX2 codegen
  kAvx512,  // 8-lane wide engine, AVX-512 codegen
};

/// Parses a CLI/env spelling ("auto", "scalar", "wide", "avx2", "avx512").
std::optional<Backend> ParseBackend(std::string_view name);

/// Stable token for reports, summaries and BENCH_faultsim.json.
std::string_view BackendName(Backend backend);

/// True when the backend's code was compiled into this binary (the SIMD
/// translation units are gated on toolchain support at configure time).
bool BackendCompiled(Backend backend);

/// True when the backend is compiled in AND the running CPU supports the
/// instruction set it was compiled for. scalar and wide are always
/// supported; kAuto is "supported" by definition (it resolves to something).
bool BackendSupported(Backend backend);

/// Resolves a requested backend to a concrete one:
///  * kAuto consults $GPUSTL_BACKEND first (the env var configures runs
///    whose argv cannot be edited; an explicit --backend flag bypasses
///    it); when the variable is unset or set to "auto", dispatch picks
///    kAvx2 when the CPU has it, else kScalar.
///  * a concrete request returns itself when supported.
/// Throws SimError (class input-error) for unknown $GPUSTL_BACKEND
/// spellings or a concrete request the binary/CPU cannot honour — a wrong
/// backend must fail loudly, never silently fall back.
Backend ResolveBackend(Backend requested);

/// Every backend supported on this machine, scalar first.
/// This is what the conformance suite parameterizes over.
std::vector<Backend> RegisteredBackends();

/// Patterns per propagation block of a concrete backend (64, 256 or 512).
/// Not valid for kAuto.
int BackendWordBits(Backend backend);

}  // namespace gpustl::fault
