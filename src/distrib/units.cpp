#include "distrib/units.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/error.h"
#include "common/status.h"
#include "isa/binary.h"

namespace gpustl::distrib {
namespace fs = std::filesystem;
namespace {

constexpr char kUnitMagic[4] = {'G', 'W', 'U', '1'};
constexpr std::uint32_t kUnitVersion = 2;

std::string ProgramBytes(const isa::Program& ptp) {
  std::ostringstream os(std::ios::binary);
  isa::SaveBinary(os, ptp);
  return os.str();
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

// Write-to-unique-temp, fsync-free rename. The payload is a pure function
// of the name, so a racing writer publishes identical bytes and either
// rename outcome is correct.
void AtomicWrite(const fs::path& path, const std::string& bytes) {
  static std::atomic<std::uint64_t> seq{0};
  const fs::path tmp =
      path.string() + "." + std::to_string(::getpid()) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw IoError("distrib: cannot write " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    fs::remove(tmp, ec2);
    throw IoError("distrib: cannot rename " + tmp.string() + " -> " +
                  path.string() + ": " + ec.message());
  }
}

Hash128 PayloadChecksum(const std::string& payload) {
  Hasher128 h;
  h.AddString("gpustl-wunit-file-v1");
  h.AddBytes(payload.data(), payload.size());
  return h.Finish();
}

}  // namespace

Hash128 FingerprintUnit(const WorkUnit& unit) {
  Hasher128 h;
  h.AddString("gpustl-wunit-v2");
  h.AddString(unit.target_token);
  h.AddBool(unit.reverse_patterns);
  const std::string bytes = ProgramBytes(unit.ptp);
  h.AddBytes(bytes.data(), bytes.size());
  return h.Finish();
}

std::string UnitName(const WorkUnit& unit) {
  return FingerprintUnit(unit).ToHex();
}

std::string UnitsDir(const std::string& dir) { return dir + "/units"; }
std::string ClaimsDir(const std::string& dir) { return dir + "/claims"; }
std::string DoneDir(const std::string& dir) { return dir + "/done"; }
std::string StatsDir(const std::string& dir) { return dir + "/stats"; }
std::string MetaPath(const std::string& dir) { return dir + "/meta.txt"; }
std::string CampaignDonePath(const std::string& dir) {
  return dir + "/campaign.done";
}

void InitDistribDir(const std::string& dir) {
  std::error_code ec;
  for (const std::string& d :
       {dir, UnitsDir(dir), ClaimsDir(dir), DoneDir(dir), StatsDir(dir)}) {
    fs::create_directories(d, ec);
    if (ec) {
      throw IoError("distrib: cannot create " + d + ": " + ec.message());
    }
  }
}

std::string WriteUnitFile(const std::string& dir, const WorkUnit& unit) {
  const std::string name = UnitName(unit);

  std::string payload;
  PutU32(payload, unit.reverse_patterns ? 1u : 0u);
  PutU32(payload, static_cast<std::uint32_t>(unit.target_token.size()));
  payload += unit.target_token;
  const std::string prog = ProgramBytes(unit.ptp);
  PutU64(payload, prog.size());
  payload += prog;

  std::string bytes(kUnitMagic, sizeof(kUnitMagic));
  PutU32(bytes, kUnitVersion);
  PutU64(bytes, payload.size());
  const Hash128 sum = PayloadChecksum(payload);
  PutU64(bytes, sum.lo);
  PutU64(bytes, sum.hi);
  bytes += payload;

  AtomicWrite(UnitsDir(dir) + "/" + name + ".unit", bytes);
  return name;
}

std::optional<WorkUnit> ReadUnitFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string bytes = buf.str();

  const auto corrupt = [&path](const char* why) -> std::optional<WorkUnit> {
    std::fprintf(stderr, "gpustl-distrib: skipping unit %s (%s)\n",
                 path.c_str(), why);
    return std::nullopt;
  };

  constexpr std::size_t kHeader = 4 + 4 + 8 + 16;
  if (bytes.size() < kHeader) return corrupt("truncated header");
  if (std::string_view(bytes.data(), 4) !=
      std::string_view(kUnitMagic, 4)) {
    return corrupt("bad magic");
  }
  if (GetU32(bytes.data() + 4) != kUnitVersion) return corrupt("bad version");
  const std::uint64_t payload_size = GetU64(bytes.data() + 8);
  if (bytes.size() != kHeader + payload_size) return corrupt("bad size");
  const Hash128 want{GetU64(bytes.data() + 16), GetU64(bytes.data() + 24)};
  const std::string payload = bytes.substr(kHeader);
  const Hash128 got = PayloadChecksum(payload);
  if (got.lo != want.lo || got.hi != want.hi) return corrupt("bad checksum");

  if (payload.size() < 8) return corrupt("truncated payload");
  WorkUnit unit;
  unit.reverse_patterns = GetU32(payload.data()) != 0;
  const std::uint32_t token_len = GetU32(payload.data() + 4);
  if (payload.size() < 8 + std::uint64_t(token_len) + 8) {
    return corrupt("truncated token");
  }
  unit.target_token = payload.substr(8, token_len);
  const std::size_t prog_off = 8 + token_len;
  const std::uint64_t prog_size = GetU64(payload.data() + prog_off);
  if (payload.size() != prog_off + 8 + prog_size) {
    return corrupt("truncated program");
  }
  try {
    std::istringstream ps(payload.substr(prog_off + 8), std::ios::binary);
    unit.ptp = isa::LoadBinary(ps);
  } catch (const std::exception& e) {
    return corrupt(e.what());
  }
  return unit;
}

std::vector<std::string> ListUnits(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(UnitsDir(dir), ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& p = it->path();
    if (p.extension() != ".unit") continue;
    names.push_back(p.stem().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

void WriteMeta(
    const std::string& dir,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string text;
  for (const auto& [key, value] : entries) {
    text += key + "=" + value + "\n";
  }
  AtomicWrite(MetaPath(dir), text);
}

std::optional<std::string> ReadMetaValue(const std::string& dir,
                                         const std::string& key) {
  std::ifstream is(MetaPath(dir));
  if (!is) return std::nullopt;
  std::string line;
  while (std::getline(is, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    if (line.substr(0, eq) == key) return line.substr(eq + 1);
  }
  return std::nullopt;
}

bool CampaignDone(const std::string& dir) {
  std::error_code ec;
  return fs::exists(CampaignDonePath(dir), ec);
}

void MarkCampaignDone(const std::string& dir) {
  AtomicWrite(CampaignDonePath(dir), "done\n");
}

void ClearCampaignDone(const std::string& dir) {
  std::error_code ec;
  fs::remove(CampaignDonePath(dir), ec);
}

}  // namespace gpustl::distrib
