// PatternSet container semantics and VCDE report round trips.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "netlist/patterns.h"
#include "netlist/vcd.h"

namespace gpustl::netlist {
namespace {

TEST(PatternSetTest, AddAndReadBits) {
  PatternSet p(10);
  p.Add64(100, 0b1010101010);
  p.Add64(101, 0b0000000001);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.width(), 10);
  EXPECT_EQ(p.cc(0), 100u);
  EXPECT_TRUE(p.Bit(0, 1));
  EXPECT_FALSE(p.Bit(0, 0));
  EXPECT_TRUE(p.Bit(1, 0));
}

TEST(PatternSetTest, WidePatternsSpanWords) {
  PatternSet p(100);
  std::uint64_t row[2] = {~0ull, 0x5ull};
  p.Add(7, row);
  EXPECT_TRUE(p.Bit(0, 63));
  EXPECT_TRUE(p.Bit(0, 64));
  EXPECT_FALSE(p.Bit(0, 65));
  EXPECT_TRUE(p.Bit(0, 66));
  EXPECT_EQ(p.words_per_pattern(), 2u);
}

TEST(PatternSetTest, PaddingBitsMasked) {
  PatternSet p(4);
  p.Add64(0, 0xFF);  // upper bits must be dropped
  EXPECT_EQ(p.Row(0)[0], 0xFull);
}

TEST(PatternSetTest, ReversedFlipsOrderKeepsStamps) {
  PatternSet p(8);
  p.Add64(10, 0x1);
  p.Add64(20, 0x2);
  p.Add64(30, 0x3);
  const PatternSet r = p.Reversed();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.cc(0), 30u);
  EXPECT_EQ(r.Row(0)[0], 0x3u);
  EXPECT_EQ(r.cc(2), 10u);
  // Double reversal is the identity.
  EXPECT_EQ(r.Reversed(), p);
}

TEST(PatternSetTest, SelectKeepsRowsAndStamps) {
  PatternSet p(70);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t row[2] = {i, i + 10};
    p.Add(100 + i, row);
  }
  const PatternSet s = p.Select({3, 1});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.width(), 70);
  EXPECT_EQ(s.cc(0), 103u);
  EXPECT_EQ(s.Row(0)[1], 13u);
  EXPECT_EQ(s.cc(1), 101u);
  EXPECT_EQ(s.Row(1)[0], 1u);
  EXPECT_TRUE(p.Select({}).empty());
}

TEST(DistinctRowsTest, FirstOccurrencesInOrder) {
  PatternSet p(8);
  for (const std::uint64_t v : {5, 7, 5, 5, 9, 7}) p.Add64(0, v);
  const DistinctRows rows = FindDistinctRows(p);
  EXPECT_EQ(rows.first, (std::vector<std::uint32_t>{0, 1, 4}));
  EXPECT_EQ(rows.of, (std::vector<std::uint32_t>{0, 1, 0, 0, 2, 1}));
  EXPECT_FALSE(rows.all_distinct());
}

TEST(DistinctRowsTest, EmptyAndAllDistinct) {
  EXPECT_TRUE(FindDistinctRows(PatternSet(3)).all_distinct());
  PatternSet p(16);
  for (std::uint64_t v = 0; v < 300; ++v) p.Add64(v, v);
  const DistinctRows rows = FindDistinctRows(p);
  EXPECT_TRUE(rows.all_distinct());
  for (std::uint32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(rows.first[i], i);
    EXPECT_EQ(rows.of[i], i);
  }
}

TEST(DistinctRowsTest, ComparesEveryWord) {
  // Rows that differ only in their last word are distinct; rows equal in
  // every word are not, whatever their cc stamps.
  PatternSet p(130);
  const std::uint64_t a[3] = {1, 2, 3};
  const std::uint64_t b[3] = {1, 2, 2};
  p.Add(0, a);
  p.Add(1, b);
  p.Add(2, a);
  p.Add(3, b);
  const DistinctRows rows = FindDistinctRows(p);
  EXPECT_EQ(rows.first, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(rows.of, (std::vector<std::uint32_t>{0, 1, 0, 1}));
}

TEST(DistinctRowsTest, RandomRowsMatchAnOrderedMap) {
  Rng rng(0xD157);
  PatternSet p(20);
  for (int i = 0; i < 5000; ++i) p.Add64(0, rng.below(1500));
  const DistinctRows rows = FindDistinctRows(p);
  std::map<std::uint64_t, std::uint32_t> seen;
  for (std::uint32_t i = 0; i < p.size(); ++i) {
    const auto [it, fresh] = seen.emplace(
        p.Row(i)[0], static_cast<std::uint32_t>(seen.size()));
    EXPECT_EQ(rows.of[i], it->second) << i;
    if (fresh) {
      EXPECT_EQ(rows.first[it->second], i);
    }
  }
  EXPECT_EQ(rows.first.size(), seen.size());
}

TEST(VcdeTest, RoundTripNarrow) {
  PatternSet p(12);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) p.Add64(i * 3, rng() & 0xFFF);

  std::stringstream ss;
  WriteVcde(ss, "sp_core", p);
  std::string module;
  const PatternSet back = ReadVcde(ss, &module);
  EXPECT_EQ(module, "sp_core");
  EXPECT_EQ(back, p);
}

TEST(VcdeTest, RoundTripWide) {
  PatternSet p(105);
  Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    std::uint64_t row[2] = {rng(), rng() & ((1ull << 41) - 1)};
    p.Add(i, row);
  }
  std::stringstream ss;
  WriteVcde(ss, "du", p);
  EXPECT_EQ(ReadVcde(ss), p);
}

TEST(VcdeTest, RejectsMalformedHeader) {
  std::stringstream ss("$nope x width 3 patterns 1\n");
  EXPECT_THROW(ReadVcde(ss), ReportError);
}

TEST(VcdeTest, RejectsTruncatedBody) {
  std::stringstream ss("$vcde m width 8 patterns 2\n0 00000000000000ff\n");
  EXPECT_THROW(ReadVcde(ss), ReportError);
}

TEST(VcdeTest, RejectsMissingEnd) {
  std::stringstream ss("$vcde m width 8 patterns 1\n0 00000000000000ff\n");
  EXPECT_THROW(ReadVcde(ss), ReportError);
}

TEST(VcdeTest, RejectsBadHex) {
  std::stringstream ss("$vcde m width 8 patterns 1\n0 zz\n$end\n");
  EXPECT_THROW(ReadVcde(ss), ReportError);
}

TEST(VcdeTest, EmptySetRoundTrips) {
  PatternSet p(16);
  std::stringstream ss;
  WriteVcde(ss, "m", p);
  EXPECT_EQ(ReadVcde(ss), p);
}

// --- VCD waveform dump ---

TEST(VcdTest, DumpsHeaderAndChanges) {
  Netlist nl("wave");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  nl.MarkOutput(nl.AddGate(CellType::kXor2, {a, b}), "y");
  nl.Freeze();

  PatternSet pats(2);
  pats.Add64(0, 0b00);
  pats.Add64(5, 0b01);
  pats.Add64(9, 0b11);

  const std::string vcd = DumpVcd(nl, pats);
  EXPECT_NE(vcd.find("$timescale"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);
  EXPECT_NE(vcd.find(" a $end"), std::string::npos);
  EXPECT_NE(vcd.find(" y $end"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("#5"), std::string::npos);
  EXPECT_NE(vcd.find("#9"), std::string::npos);
}

TEST(VcdTest, OnlyChangesAreEmitted) {
  Netlist nl("wave");
  const NetId a = nl.AddInput("a");
  nl.MarkOutput(nl.AddGate(CellType::kBuf, {a}), "y");
  nl.Freeze();

  PatternSet pats(1);
  pats.Add64(0, 1);
  pats.Add64(1, 1);  // no change: no #1 stamp
  pats.Add64(2, 0);

  const std::string vcd = DumpVcd(nl, pats);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_EQ(vcd.find("#1\n"), std::string::npos);
  EXPECT_NE(vcd.find("#2"), std::string::npos);
}

TEST(VcdTest, CrossesPatternBlocks) {
  Netlist nl("wave");
  const NetId a = nl.AddInput("a");
  nl.MarkOutput(nl.AddGate(CellType::kInv, {a}), "y");
  nl.Freeze();
  PatternSet pats(1);
  for (int i = 0; i < 130; ++i) pats.Add64(static_cast<std::uint64_t>(i), i % 2);
  const std::string vcd = DumpVcd(nl, pats);
  EXPECT_NE(vcd.find("#129"), std::string::npos);
}

}  // namespace
}  // namespace gpustl::netlist
