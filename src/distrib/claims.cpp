#include "distrib/claims.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>

#include "distrib/units.h"

namespace gpustl::distrib {
namespace {

double NowSeconds() {
  struct timespec ts;
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Claim age in seconds, or a negative value when the claim is missing.
double ClaimAge(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1.0;
  const double mtime =
      double(st.st_mtim.tv_sec) + double(st.st_mtim.tv_nsec) * 1e-9;
  return NowSeconds() - mtime;
}

/// Sets a path's mtime to now + `offset_seconds` (negative = the past).
void SetMtime(const std::string& path, double offset_seconds) {
  struct timespec times[2];
  ::clock_gettime(CLOCK_REALTIME, &times[0]);
  const double target =
      double(times[0].tv_sec) + double(times[0].tv_nsec) * 1e-9 +
      offset_seconds;
  times[0].tv_sec = static_cast<time_t>(std::floor(target));
  times[0].tv_nsec = static_cast<long>((target - std::floor(target)) * 1e9);
  times[1] = times[0];
  ::utimensat(AT_FDCWD, path.c_str(), times, 0);
}

/// O_CREAT|O_EXCL create-with-content. Returns false when the file exists
/// or creation fails for any other reason (claiming is best-effort).
bool ExclusiveCreate(const std::string& path, const std::string& content) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  const ssize_t n = ::write(fd, content.data(), content.size());
  ::close(fd);
  if (n != static_cast<ssize_t>(content.size())) {
    // A torn claim body is harmless (content is diagnostic), but a full
    // write failure (disk gone) should not leave us believing we own it.
    if (n < 0) {
      ::unlink(path.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

ClaimBoard::ClaimBoard(std::string dir, std::string owner,
                       double stale_seconds)
    : dir_(std::move(dir)),
      owner_(std::move(owner)),
      stale_seconds_(stale_seconds) {}

std::string ClaimBoard::ClaimPath(const std::string& unit) const {
  return ClaimsDir(dir_) + "/" + unit + ".claim";
}

std::string ClaimBoard::DonePath(const std::string& unit) const {
  return DoneDir(dir_) + "/" + unit + ".done";
}

ClaimResult ClaimBoard::TryClaim(const std::string& unit) {
  const std::string path = ClaimPath(unit);
  const std::string content =
      "owner=" + owner_ + " pid=" + std::to_string(::getpid()) + "\n";
  if (ExclusiveCreate(path, content)) return {.claimed = true};

  const double age = ClaimAge(path);
  if (age < stale_seconds_) return {};  // fresh (or just vanished): back off

  // Stale: expire it and race for the replacement. A concurrent stealer that
  // aged the old claim may unlink ours too, so two owners can emerge: the
  // unit is at worst computed twice, never wrong.
  ::unlink(path.c_str());
  if (ExclusiveCreate(path, content)) return {.claimed = true, .stole = true};
  return {};
}

void ClaimBoard::Heartbeat(const std::string& unit) {
  SetMtime(ClaimPath(unit), 0.0);
}

void ClaimBoard::Release(const std::string& unit) {
  ::unlink(ClaimPath(unit).c_str());
}

void ClaimBoard::MarkDone(const std::string& unit) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string path = DonePath(unit);
  const std::string tmp =
      path + "." + std::to_string(::getpid()) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return;  // done-marking is advisory; the store entry is real
  const std::string content = "owner=" + owner_ + "\n";
  (void)!::write(fd, content.data(), content.size());
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) ::unlink(tmp.c_str());
}

bool ClaimBoard::IsDone(const std::string& unit) const {
  struct stat st;
  return ::stat(DonePath(unit).c_str(), &st) == 0;
}

bool ClaimBoard::HasLiveClaim(const std::string& unit) const {
  const double age = ClaimAge(ClaimPath(unit));
  return age >= 0.0 && age < stale_seconds_;
}

void ClaimBoard::Backdate(const std::string& unit, double seconds) {
  SetMtime(ClaimPath(unit), -seconds);
}

}  // namespace gpustl::distrib
