#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

thread_local std::vector<std::uint64_t> t_open;  // innermost last
thread_local std::uint64_t t_stage = 0;

void AppendEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::Open(std::string_view name, std::string_view req) {
  if (!enabled()) return 0;
  const std::uint64_t parent = t_open.empty() ? 0 : t_open.back();
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord rec;
    rec.id = spans_.size() + 1;
    rec.parent = parent;
    rec.name = std::string(name);
    // A span without its own request id inherits its parent's.
    rec.req = !req.empty() || parent == 0 ? std::string(req)
                                          : spans_[parent - 1].req;
    rec.start_ns = NowNs();
    id = rec.id;
    spans_.push_back(std::move(rec));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::Close(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
  }
  const auto it = std::find(t_open.begin(), t_open.end(), id);
  if (it != t_open.end()) t_open.erase(it);
}

std::uint64_t Tracer::Record(std::string_view name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::string_view req) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.id = spans_.size() + 1;
  rec.parent = parent;
  rec.name = std::string(name);
  rec.req = std::string(req);
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::OpenStage(std::string_view name) {
  CloseStage();
  t_stage = Open(name);
}

void Tracer::CloseStage() {
  Close(t_stage);
  t_stage = 0;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::string out = "{\"spans\": [\n";
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out += "{\"id\": " + std::to_string(s.id) +
             ", \"parent\": " + std::to_string(s.parent) + ", \"name\": \"";
      AppendEscaped(out, s.name);
      out += "\", \"req\": \"";
      AppendEscaped(out, s.req);
      out += "\", \"start_ns\": " + std::to_string(s.start_ns) +
             ", \"end_ns\": " + std::to_string(s.end_ns) + "}";
      out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

double SpanSeconds(const std::vector<SpanRecord>& spans,
                   std::string_view name) {
  std::int64_t total = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == name) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

}  // namespace perfbench
