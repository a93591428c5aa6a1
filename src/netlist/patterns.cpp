#include "netlist/patterns.h"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <istream>
#include <new>
#include <ostream>

#include "common/error.h"
#include "common/strutil.h"

namespace gpustl::netlist {

namespace internal {

WordArray::~WordArray() {
#if defined(__linux__)
  if (mapped_) {
    ::munmap(data_, capacity_ * sizeof(std::uint64_t));
    return;
  }
#endif
  std::free(data_);
}

void WordArray::Reserve(std::size_t n) {
  if (n <= capacity_) return;
  std::size_t bytes = n * sizeof(std::uint64_t);
#if defined(__linux__)
  if (bytes >= kMapBytes) {
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    bytes = (bytes + page - 1) / page * page;
    void* grown = nullptr;
    if (mapped_) {
      grown = ::mremap(data_, capacity_ * sizeof(std::uint64_t), bytes,
                       MREMAP_MAYMOVE);
    } else {
      grown = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (grown != MAP_FAILED) {
        std::copy_n(data_, size_, static_cast<std::uint64_t*>(grown));
        std::free(data_);
      }
    }
    if (grown == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<std::uint64_t*>(grown);
    capacity_ = bytes / sizeof(std::uint64_t);
    mapped_ = true;
    return;
  }
#endif
  void* grown = std::realloc(data_, bytes);
  if (grown == nullptr) throw std::bad_alloc();
  data_ = static_cast<std::uint64_t*>(grown);
  capacity_ = n;
}

}  // namespace internal

PatternSet::PatternSet(int width) : width_(width) {
  GPUSTL_ASSERT(width > 0, "pattern width must be positive");
}

void PatternSet::Add(std::uint64_t cc, const std::uint64_t* words) {
  GPUSTL_ASSERT(width_ > 0, "Add on a pattern set without a width");
  ccs_.push_back(cc);
  const std::size_t last = words_per_pattern() - 1;
  for (std::size_t w = 0; w < last; ++w) bits_.push_back(words[w]);
  // Mask padding bits of the last word so equality and hashing are exact.
  const int tail = width_ % 64;
  bits_.push_back(tail == 0 ? words[last]
                            : words[last] & ((1ull << tail) - 1));
}

void PatternSet::Add64(std::uint64_t cc, std::uint64_t bits) {
  GPUSTL_ASSERT(width_ <= 64, "Add64 requires width <= 64");
  Add(cc, &bits);
}

std::uint64_t* PatternSet::AppendRows(std::uint64_t cc, std::size_t n) {
  GPUSTL_ASSERT(width_ > 0, "AppendRows on a pattern set without a width");
  std::fill_n(ccs_.Grow(n), n, cc);
  return bits_.Grow(n * words_per_pattern());
}

bool PatternSet::Bit(std::size_t p, int i) const {
  GPUSTL_ASSERT(p < size() && i >= 0 && i < width_, "pattern bit out of range");
  const std::uint64_t word = bits_[p * words_per_pattern() +
                                   static_cast<std::size_t>(i) / 64];
  return (word >> (i % 64)) & 1;
}

const std::uint64_t* PatternSet::Row(std::size_t p) const {
  GPUSTL_ASSERT(p < size(), "pattern index out of range");
  return bits_.data() + p * words_per_pattern();
}

PatternSet PatternSet::Reversed() const {
  PatternSet out(width_ == 0 ? 1 : width_);
  out.width_ = width_;
  out.ccs_.Reserve(size());
  out.bits_.Reserve(bits_.size());
  for (std::size_t p = size(); p-- > 0;) {
    out.Add(ccs_[p], Row(p));
  }
  return out;
}

PatternSet PatternSet::Select(const std::vector<std::uint32_t>& rows) const {
  PatternSet out;
  out.width_ = width_;
  out.ccs_.Reserve(rows.size());
  out.bits_.Reserve(rows.size() * words_per_pattern());
  for (const std::uint32_t p : rows) {
    out.ccs_.push_back(ccs_[p]);
    std::copy_n(Row(p), words_per_pattern(),
                out.bits_.Grow(words_per_pattern()));
  }
  return out;
}

namespace {

/// A row's slot hash: every word folded in, then the MurmurHash3
/// finalizer, so the low bits that index the table depend on all of them.
std::uint64_t HashRow(const std::uint64_t* row, std::size_t words) {
  std::uint64_t h = words;
  for (std::size_t w = 0; w < words; ++w) {
    h = (h ^ row[w]) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

RowTable::RowTable(const PatternSet& patterns)
    : patterns_(&patterns),
      words_(patterns.words_per_pattern()),
      // Slots hold distinct indices; the load factor stays at or below 1/2.
      mask_(std::bit_ceil(std::max<std::size_t>(2 * patterns.size(), 2)) -
            1),
      slots_(mask_ + 1, kAbsent) {
  const std::size_t n = patterns.size();
  GPUSTL_ASSERT(n < kAbsent, "too many patterns to index");
  distinct_.of.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    std::uint32_t& d = slots_[SlotOf(patterns.Row(p))];
    if (d == kAbsent) {
      d = static_cast<std::uint32_t>(distinct_.first.size());
      distinct_.first.push_back(static_cast<std::uint32_t>(p));
    }
    distinct_.of[p] = d;
  }
}

std::size_t RowTable::SlotOf(const std::uint64_t* row) const {
  for (std::size_t slot = HashRow(row, words_) & mask_;;
       slot = (slot + 1) & mask_) {
    const std::uint32_t d = slots_[slot];
    if (d == kAbsent ||
        std::equal(row, row + words_, patterns_->Row(distinct_.first[d]))) {
      return slot;
    }
  }
}

std::uint32_t RowTable::Find(const std::uint64_t* row) const {
  return slots_[SlotOf(row)];
}

DistinctRows FindDistinctRows(const PatternSet& patterns) {
  return RowTable(patterns).TakeDistinct();
}

void WriteVcde(std::ostream& os, const std::string& module,
               const PatternSet& patterns) {
  os << "$vcde " << module << " width " << patterns.width() << " patterns "
     << patterns.size() << "\n";
  const std::size_t wpp = patterns.words_per_pattern();
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    os << patterns.cc(p);
    const std::uint64_t* row = patterns.Row(p);
    for (std::size_t w = 0; w < wpp; ++w) {
      os << " " << ::gpustl::Format("%016llx", static_cast<unsigned long long>(row[w]));
    }
    os << "\n";
  }
  os << "$end\n";
}

PatternSet ReadVcde(std::istream& is, std::string* module_out) {
  std::string line;
  if (!std::getline(is, line)) throw ReportError("vcde: empty stream");
  const auto head = SplitWs(line);
  if (head.size() != 6 || head[0] != "$vcde" || head[2] != "width" ||
      head[4] != "patterns") {
    throw ReportError("vcde: malformed header '" + line + "'");
  }
  if (module_out) *module_out = std::string(head[1]);
  const auto width = ParseInt(head[3]);
  const auto count = ParseInt(head[5]);
  if (!width || *width <= 0 || !count || *count < 0) {
    throw ReportError("vcde: bad width/count");
  }

  PatternSet out(static_cast<int>(*width));
  const std::size_t wpp = out.words_per_pattern();
  std::vector<std::uint64_t> row(wpp);
  for (std::int64_t p = 0; p < *count; ++p) {
    if (!std::getline(is, line)) throw ReportError("vcde: truncated body");
    const auto toks = SplitWs(line);
    if (toks.size() != 1 + wpp) throw ReportError("vcde: bad row arity");
    const auto cc = ParseInt(toks[0]);
    if (!cc || *cc < 0) throw ReportError("vcde: bad cc stamp");
    for (std::size_t w = 0; w < wpp; ++w) {
      std::uint64_t value = 0;
      for (char c : toks[1 + w]) {
        int digit;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
        else throw ReportError("vcde: bad hex word");
        value = (value << 4) | static_cast<std::uint64_t>(digit);
      }
      row[w] = value;
    }
    out.Add(static_cast<std::uint64_t>(*cc), row.data());
  }
  if (!std::getline(is, line) || Trim(line) != "$end") {
    throw ReportError("vcde: missing $end");
  }
  return out;
}

}  // namespace gpustl::netlist
