#include "netlist/patterns.h"

#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/strutil.h"

namespace gpustl::netlist {

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

bool PatternSet::Bit(std::size_t p, int i) const {
  GPUSTL_ASSERT(p < size() && i >= 0 && i < width_, "pattern bit out of range");
  const std::uint64_t word = bits_[p * words_per_pattern() +
                                   static_cast<std::size_t>(i) / 64];
  return (word >> (i % 64)) & 1;
}

const std::uint64_t* PatternSet::Row(std::size_t p) const {
  GPUSTL_ASSERT(p < size(), "pattern index out of range");
  return &bits_[p * words_per_pattern()];
}

PatternSet PatternSet::Reversed() const {
  PatternSet out(width_ == 0 ? 1 : width_);
  out.width_ = width_;
  out.ccs_.clear();
  out.bits_.clear();
  for (std::size_t p = size(); p-- > 0;) {
    out.Add(ccs_[p], Row(p));
  }
  return out;
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
