#include "gpu/memory.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "common/strutil.h"

namespace gpustl::gpu {

std::uint32_t WordIndex(std::uint32_t byte_addr) {
  if (byte_addr % 4 != 0) {
    throw SimError(Format("misaligned word access at 0x%x", byte_addr));
  }
  return byte_addr / 4;
}

const GlobalMemory::Page* GlobalMemory::FindPage(std::uint32_t key) const {
  if (key == last_key_) return &pages_[last_page_];
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &pages_[it->second];
}

std::uint32_t GlobalMemory::Load(std::uint32_t byte_addr) const {
  const std::uint32_t word = WordIndex(byte_addr);
  const Page* page = FindPage(word >> kPageShift);
  return page == nullptr ? 0u : page->words[word & 63];
}

void GlobalMemory::Store(std::uint32_t byte_addr, std::uint32_t value) {
  const std::uint32_t word = WordIndex(byte_addr);
  const std::uint32_t key = word >> kPageShift;
  if (key != last_key_) {
    const auto [it, added] =
        index_.try_emplace(key, static_cast<std::uint32_t>(pages_.size()));
    if (added) pages_.emplace_back();
    last_key_ = key;
    last_page_ = it->second;
  }
  Page& page = pages_[last_page_];
  const std::uint64_t bit = std::uint64_t{1} << (word & 63);
  size_ += (page.written & bit) == 0;
  page.written |= bit;
  page.words[word & 63] = value;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> GlobalMemory::words()
    const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> keys(index_.begin(),
                                                            index_.end());
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(size_);
  for (const auto& [key, index] : keys) {
    const Page& page = pages_[index];
    for (std::uint64_t m = page.written; m != 0; m &= m - 1) {
      const int i = std::countr_zero(m);
      out.emplace_back((key << kPageShift) | static_cast<std::uint32_t>(i),
                       page.words[static_cast<std::size_t>(i)]);
    }
  }
  return out;
}

std::uint32_t DenseMemory::Load(std::uint32_t byte_addr) const {
  const std::uint32_t idx = WordIndex(byte_addr);
  if (idx >= words_.size()) {
    throw SimError(Format("memory load out of range at 0x%x", byte_addr));
  }
  return words_[idx];
}

void DenseMemory::Store(std::uint32_t byte_addr, std::uint32_t value) {
  const std::uint32_t idx = WordIndex(byte_addr);
  if (idx >= words_.size()) {
    throw SimError(Format("memory store out of range at 0x%x", byte_addr));
  }
  words_[idx] = value;
}

}  // namespace gpustl::gpu
