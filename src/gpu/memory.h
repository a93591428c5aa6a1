// GPU memory spaces.
//
// The model exposes the FlexGripPlus memory hierarchy: a global memory
// (sparse, word-addressed), per-block shared memory, per-thread local
// memory, and a read-only constant memory. All accesses are 32-bit words at
// byte addresses (word-aligned); misaligned or out-of-range accesses raise
// SimError — a PTP that faults the memory system is a malformed test.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gpustl::gpu {

/// Sparse word-addressed global memory. Reads of untouched words return 0.
///
/// Words live in 64-word pages found through a hash index, with the last
/// page touched remembered: a warp's stores to consecutive words cost one
/// array write each, not a tree insert.
class GlobalMemory {
 public:
  std::uint32_t Load(std::uint32_t byte_addr) const;
  void Store(std::uint32_t byte_addr, std::uint32_t value);

  /// All words ever written (the observable "memory output of the GPU"),
  /// as (word index = byte address / 4, value) in ascending word order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> words() const;

  /// Number of words ever written.
  std::size_t size() const { return size_; }

  /// Same words written, with the same values.
  bool operator==(const GlobalMemory& other) const {
    return words() == other.words();
  }

 private:
  static constexpr int kPageShift = 6;

  struct Page {
    std::uint64_t written = 0;  // bit i: word i of the page was stored
    std::array<std::uint32_t, 64> words{};
  };

  /// The page holding word `key << kPageShift`, or null.
  const Page* FindPage(std::uint32_t key) const;

  std::vector<Page> pages_;
  std::unordered_map<std::uint32_t, std::uint32_t> index_;  // key -> page
  std::uint32_t last_key_ = ~0u;  // the last page stored to (none yet)
  std::uint32_t last_page_ = 0;
  std::size_t size_ = 0;
};

/// Dense bounded word memory for shared/local/constant spaces.
class DenseMemory {
 public:
  explicit DenseMemory(std::uint32_t num_words) : words_(num_words, 0) {}

  std::uint32_t Load(std::uint32_t byte_addr) const;
  void Store(std::uint32_t byte_addr, std::uint32_t value);

  std::uint32_t size_words() const {
    return static_cast<std::uint32_t>(words_.size());
  }

 private:
  std::vector<std::uint32_t> words_;
};

/// Checks alignment; returns the word index. Throws SimError on misalign.
std::uint32_t WordIndex(std::uint32_t byte_addr);

}  // namespace gpustl::gpu
