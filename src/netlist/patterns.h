// Test-pattern containers and the VCDE-style pattern report format.
//
// A PatternSet is the "test patterns report" of the paper's stage 2: the
// per-clock-cycle binary input vectors that the executing PTP applies to the
// target module, extracted by observing the module's I/O activity. Each
// pattern carries the clock-cycle stamp it was captured at, which is what
// lets stage 3 join fault detections back to instructions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace gpustl::netlist {

namespace internal {

/// A growable array of 64-bit words. A captured pattern set grows by a
/// warp at a time to megabytes; std::vector copies each doubling into
/// fresh pages, so every page of the final array is faulted in about
/// twice. From kMapBytes up the array is its own mapping, grown with
/// mremap, which moves page tables and neither copies nor re-faults: only
/// the new tail faults in. Smaller arrays stay on the heap.
class WordArray {
 public:
  WordArray() = default;
  WordArray(const WordArray& other) {
    std::copy_n(other.data_, other.size_, Grow(other.size_));
  }
  WordArray(WordArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)),
        mapped_(std::exchange(other.mapped_, false)) {}
  WordArray& operator=(WordArray other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    std::swap(mapped_, other.mapped_);
    return *this;
  }
  ~WordArray();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint64_t* data() const { return data_; }
  std::uint64_t operator[](std::size_t i) const { return data_[i]; }

  /// Appends `n` words for the caller to write; returns the first.
  std::uint64_t* Grow(std::size_t n) {
    if (size_ + n > capacity_) Reserve(std::max(2 * capacity_, size_ + n));
    std::uint64_t* tail = data_ + size_;
    size_ += n;
    return tail;
  }
  void push_back(std::uint64_t word) { *Grow(1) = word; }

  /// Makes room for `n` words in all (never shrinks).
  void Reserve(std::size_t n);

  bool operator==(const WordArray& other) const {
    return size_ == other.size_ && std::equal(data_, data_ + size_, other.data_);
  }

 private:
  /// glibc's default mmap threshold: the size from which malloc would map
  /// a block itself, had a large free not raised its threshold since.
  static constexpr std::size_t kMapBytes = std::size_t{128} << 10;

  std::uint64_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  bool mapped_ = false;  // data_ is an mmap of capacity_ words
};

}  // namespace internal

/// An ordered set of equal-width binary input vectors with cc stamps.
class PatternSet {
 public:
  PatternSet() = default;
  explicit PatternSet(int width);

  int width() const { return width_; }
  std::size_t size() const { return ccs_.size(); }
  bool empty() const { return ccs_.empty(); }

  /// Words per pattern row.
  std::size_t words_per_pattern() const {
    return (static_cast<std::size_t>(width_) + 63) / 64;
  }

  /// Appends a pattern given as packed little-endian words (low bit of
  /// words[0] = input 0). Extra high bits must be zero.
  void Add(std::uint64_t cc, const std::uint64_t* words);

  /// Appends a pattern of up to 64 bits.
  void Add64(std::uint64_t cc, std::uint64_t bits);

  /// Appends `n` patterns stamped `cc` in one step and returns their
  /// storage, n * words_per_pattern() words for the caller to fill in
  /// place. Unlike Add, nothing is masked: the caller must leave every
  /// padding bit zero.
  std::uint64_t* AppendRows(std::uint64_t cc, std::size_t n);

  /// Clock-cycle stamp of pattern `p`.
  std::uint64_t cc(std::size_t p) const { return ccs_[p]; }

  /// Bit `i` of pattern `p`.
  bool Bit(std::size_t p, int i) const;

  /// Packed words of pattern `p`.
  const std::uint64_t* Row(std::size_t p) const;

  /// Returns a copy with patterns in reverse order (the paper applies
  /// SFU_IMM patterns in reverse during fault simulation).
  PatternSet Reversed() const;

  /// Returns a copy holding patterns `rows` (indices, in the given order)
  /// with their cc stamps.
  PatternSet Select(const std::vector<std::uint32_t>& rows) const;

  bool operator==(const PatternSet&) const = default;

 private:
  int width_ = 0;
  internal::WordArray ccs_;
  internal::WordArray bits_;  // size() * words_per_pattern()
};

/// The rows of a pattern set with repeats removed. A GPU's loops and
/// parallel warps apply the same module inputs over and over, so most
/// captured rows repeat an earlier one.
struct DistinctRows {
  /// Per distinct row, in order of first occurrence: the index of that
  /// first occurrence (ascending).
  std::vector<std::uint32_t> first;

  /// Per pattern: the index into `first` of the row it equals.
  std::vector<std::uint32_t> of;

  bool all_distinct() const { return first.size() == of.size(); }
};

/// The distinct rows of a pattern set, indexed for lookup by content:
/// whole rows (every word; Add masks the padding) are hashed into a flat
/// open-addressing table of distinct indices, at least twice the row
/// count, probed linearly.
class RowTable {
 public:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  /// Indexes `patterns`, which must outlive the table.
  explicit RowTable(const PatternSet& patterns);

  const DistinctRows& distinct() const { return distinct_; }
  DistinctRows TakeDistinct() && { return std::move(distinct_); }

  /// The index into distinct().first of the row equal to `row` (a row of
  /// the indexed set's width, padding zero), or kAbsent.
  std::uint32_t Find(const std::uint64_t* row) const;

 private:
  /// The slot holding `row`'s distinct index, or the empty slot it would
  /// take.
  std::size_t SlotOf(const std::uint64_t* row) const;

  const PatternSet* patterns_;
  std::size_t words_;
  std::size_t mask_;
  std::vector<std::uint32_t> slots_;
  DistinctRows distinct_;
};

/// Finds the distinct rows of `patterns` (see RowTable).
DistinctRows FindDistinctRows(const PatternSet& patterns);

/// Writes the VCDE-style text report:
///   $vcde <module> width <W> patterns <N>
///   <cc> <hex words, low word first>
///   ...
///   $end
void WriteVcde(std::ostream& os, const std::string& module,
               const PatternSet& patterns);

/// Parses a VCDE-style report. Throws ReportError on malformed input.
/// `module_out` receives the module name if non-null.
PatternSet ReadVcde(std::istream& is, std::string* module_out = nullptr);

}  // namespace gpustl::netlist
