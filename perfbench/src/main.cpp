// perfbench: the repository benchmark's workload binary.
//
//   perfbench gen --seed N --out DIR
//       builds the STL for seed N (ATPG included) into DIR.
//   perfbench setup --workload W --seed N --inputs DIR --out FILE
//       sets workload W up once and writes the seconds it took to FILE;
//       a run times its set-ups this way, each in a fresh process.
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --inputs DIR --work DIR --out FILE
//                 [--daemon PATH] [--trace-file FILE] [--ref-dir DIR]
//       runs one workload and writes its raw measurements to FILE as JSON;
//       perfbench/run.py turns them into the reported metrics.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/error.h"
#include "fault/backend.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

void AppendNumber(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

std::string ToJson(const Config& config, const Result& r) {
  std::string out = "{\n\"workload\": \"" + config.workload + "\",\n";
  out += "\"seed\": " + std::to_string(config.seed) + ",\n";
  out += "\"info\": {\"nproc\": " + std::to_string(config.threads) +
         ", \"backend\": \"" +
         std::string(gpustl::fault::BackendName(gpustl::fault::ResolveBackend(
             gpustl::fault::Backend::kAuto))) +
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"},\n";
  out += "\"samples\": {";
  bool first = true;
  for (const auto& [name, values] : r.samples) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out += ", ";
      AppendNumber(out, values[i]);
    }
    out += "]";
  }
  out += "},\n\"ops\": " + std::to_string(r.ops) + ",\n\"values\": {";
  first = true;
  for (const auto& [name, value] : r.values) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  \"" + name + "\": ";
    AppendNumber(out, value);
  }
  out += "},\n\"counts\": {";
  first = true;
  for (const auto& [name, n] : r.counts) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": " + std::to_string(n);
  }
  out += "},\n\"attempted\": " + std::to_string(r.attempted) +
         ",\n\"failed\": " + std::to_string(r.failed) + ",\n\"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"";
    for (const char c : r.failures[i]) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    out += "\"";
  }
  out += "]\n}\n";
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --seed N --out DIR\n"
               "       perfbench setup --workload W --seed N --inputs DIR "
               "--out FILE\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --inputs DIR --work DIR --out FILE "
               "[--daemon PATH] [--trace-file FILE] [--ref-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  Config config;
  config.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::string out_path, trace_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") config.workload = value;
    else if (flag == "--seed") config.seed = std::stoull(value);
    else if (flag == "--seconds") config.seconds = std::stod(value);
    else if (flag == "--trace") config.trace = value == "1";
    else if (flag == "--inputs") config.inputs_dir = value;
    else if (flag == "--work") config.work_dir = value;
    else if (flag == "--daemon") config.daemon = value;
    else if (flag == "--ref-dir") config.ref_dir = value;
    else if (flag == "--out") out_path = value;
    else if (flag == "--trace-file") trace_path = value;
    else return Usage();
  }

  if (cmd == "gen") {
    if (out_path.empty()) return Usage();
    GenerateStl(*BuildModules(), config.seed, out_path);
    return 0;
  }
  if (cmd == "setup") {
    if (out_path.empty() || config.inputs_dir.empty()) return Usage();
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) return 1;
    std::fprintf(f, "%.17g\n", SetupOnce(config));
    return std::fclose(f) == 0 ? 0 : 1;
  }
  if (cmd != "run" || out_path.empty() || config.inputs_dir.empty() ||
      config.work_dir.empty()) {
    return Usage();
  }
  std::filesystem::create_directories(config.work_dir);

  Result result;
  if (config.workload == "stl_cold") result = RunStlCold(config);
  else if (config.workload == "stl_distrib") result = RunStlDistrib(config);
  else if (config.workload == "service_mixed") result = RunServiceMixed(config);
  else if (config.workload == "atpg_tpgen") result = RunAtpgTpgen(config);
  else return Usage();

  if (config.trace && !trace_path.empty() &&
      !Tracer::Get().WriteJson(trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) return 1;
  const std::string json = ToJson(config, result);
  std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
