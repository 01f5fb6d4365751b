#include "congest/message.hpp"

#include "support/hash.hpp"

namespace congestlb::congest {

void PayloadBytes::grow(std::size_t nw, std::size_t keep) {
  const std::size_t cap = std::max<std::size_t>(2 * cap_words_, nw);
  auto* buf = new std::uint64_t[cap]();
  std::copy_n(words(), keep, buf);
  delete[] heap_;
  heap_ = buf;
  cap_words_ = static_cast<std::uint32_t>(cap);
}

std::uint64_t fold_checksum(std::uint64_t value, std::size_t width) {
  CLB_EXPECT(width >= 1 && width <= 16, "fold_checksum: width in [1,16]");
  return hash_mix64(value) & ((1ULL << width) - 1);
}

}  // namespace congestlb::congest
