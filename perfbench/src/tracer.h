// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files around calls into the
// gpustl layers; nothing inside the library is instrumented. A span has a
// name ("<layer>.<what>"), start and end on the steady clock, the span that
// caused it (0 = root) and the request or campaign it belongs to. Spans stay
// in memory and are written once, when the run ends. While the tracer is
// disabled every call is a single relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the process started timing.
std::int64_t NowNs();

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::string req;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span as a child of this thread's innermost open span and
  /// makes it the innermost one. Returns 0 while disabled.
  std::uint64_t Open(std::string_view name, std::string_view req = {});
  /// Closes the span `Open` returned (no-op for 0). Spans close in LIFO
  /// order per thread.
  void Close(std::uint64_t id);

  /// Records a finished span with explicit times and parent (spans
  /// reconstructed from another process's event stream). Returns its id,
  /// 0 while disabled.
  std::uint64_t Record(std::string_view name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent,
                       std::string_view req);

  /// Stage spans driven by CompactorOptions::stage_observer: opening a
  /// stage closes this thread's previous stage span; CloseStage ends the
  /// last one (call when CompactPtp / Process returns).
  void OpenStage(std::string_view name);
  void CloseStage();

  std::vector<SpanRecord> Spans() const;

  /// Writes {"spans": [...]} to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // index = id - 1
};

/// RAII span on the calling thread.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view req = {})
      : id_(Tracer::Get().Open(name, req)) {}
  ~Span() { Tracer::Get().Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

/// Sum of the durations, in seconds, of every recorded span named `name`.
double SpanSeconds(const std::vector<SpanRecord>& spans, std::string_view name);

}  // namespace perfbench
