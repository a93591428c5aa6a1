// Length-framed NDJSON over a stream socket.
//
// One frame carries one JSON document:
//
//   <decimal payload length>\n<payload bytes>\n
//
// The explicit length makes two failure modes cheap and deterministic:
// a peer streaming an over-long (or endless) frame is rejected with
// `frame-too-large` after reading at most the header, and a torn frame
// (connection lost mid-payload, or chaos `partial-write`) is detected
// by the missing terminator instead of silently concatenating with the
// next frame. The trailing newline keeps payloads NDJSON-compatible for
// eyeballing with `tcpdump -A` or `socat`.
//
// Every read and write takes a deadline: a peer that stops draining its
// receive buffer (chaos `slow-peer`) blows the write deadline and is
// disconnected — per-connection memory stays bounded by one frame, never
// an unbounded backlog. Chaos sites `conn-drop` / `partial-write` /
// `slow-peer` are injected here so every transport user inherits them.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>

#include "service/json.h"

namespace gpustl::net {

enum class IoStatus {
  kOk = 0,
  kTimeout,        // deadline expired (write: slow peer; read: silent peer)
  kClosed,         // orderly EOF or connection reset
  kFrameTooLarge,  // declared length exceeds the limit — reject + close
  kTorn,           // malformed header or missing terminator
  kError,          // errno-level failure
};

/// Human token for diagnostics ("timeout", "frame-too-large", ...).
std::string_view IoStatusName(IoStatus status);

struct FrameLimits {
  /// Maximum payload bytes per frame, both directions. Store-entry
  /// uploads are the largest legitimate frames; 64 MiB dwarfs them.
  std::size_t max_frame_bytes = 64ull << 20;
};

/// One framed stream connection. Owns the fd (released by Close or the
/// destructor) and a read buffer bounded by the frame limit. One thread
/// may read while another writes (distinct socket directions); writers
/// serialize externally (the server wraps writes in a per-connection
/// mutex). A failure on either side shuts the socket down and marks the
/// conn closed, but the descriptor number stays reserved until Close —
/// a concurrently blocked reader wakes on the shutdown instead of ever
/// touching a recycled fd.
class Conn {
 public:
  /// Takes ownership of `fd` and switches it to non-blocking (deadlines
  /// are enforced with poll).
  explicit Conn(int fd, FrameLimits limits = {});
  ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Writes one frame. `deadline_ms` < 0 waits forever. `chaos_tag`
  /// qualifies the conn-drop/partial-write/slow-peer sites so tests can
  /// target, say, the 3rd event write (`conn-drop@event#3`). Any
  /// non-kOk result closes the connection (a half-written frame is
  /// unrecoverable).
  IoStatus WriteFrame(std::string_view payload, int deadline_ms,
                      std::string_view chaos_tag = {});

  /// Reads one frame into `payload`. `deadline_ms` < 0 waits forever.
  /// kFrameTooLarge and kTorn close the connection (the stream cannot be
  /// resynchronized); kTimeout leaves it open — partial input stays
  /// buffered and the next call resumes.
  IoStatus ReadFrame(std::string* payload, int deadline_ms,
                     std::string_view chaos_tag = {});

  /// JSON conveniences: Dump/Parse around the frame. An unparsable
  /// payload reads as kTorn (one frame = one document is the protocol).
  IoStatus WriteJson(const service::Json& doc, int deadline_ms,
                     std::string_view chaos_tag = {});
  IoStatus ReadJson(service::Json* doc, int deadline_ms,
                    std::string_view chaos_tag = {});

  /// Wakes a blocked reader/writer on another thread (returns kClosed
  /// there). Idempotent; does not release the fd.
  void Shutdown();

  /// Marks the conn closed and releases the fd. The caller excludes
  /// every other user of the fd (reader, writers, Shutdown) meanwhile.
  void Close();

  bool closed() const { return dead_.load(std::memory_order_acquire); }
  int fd() const { return fd_; }

 private:
  /// Marks the conn dead and shuts the socket down (both directions).
  void Kill();

  int fd_ = -1;
  std::atomic<bool> dead_{false};
  FrameLimits limits_;
  std::string buffer_;  // unread bytes; bounded by header + frame + 1
};

}  // namespace gpustl::net
