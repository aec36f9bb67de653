// CRC32C path parity: the SSE4.2 instruction path, the slice-by-4 table
// path and a bitwise reference must agree on every length, alignment
// and seed, and chained calls must equal one call over the
// concatenation. crc32c() picks a path at run time, so a disagreement
// would make two builds (or two CPUs) disagree about the same frame.
#include "net/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace fastjoin::net {
namespace {

/// One bit per step, straight from the reflected polynomial.
std::uint32_t crc32c_bitwise(const unsigned char* p, std::size_t len,
                             std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
  }
  return ~c;
}

using Crc = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

/// The paths this CPU can run, named for failure messages.
std::vector<std::pair<const char*, Crc>> paths() {
  std::vector<std::pair<const char*, Crc>> out = {
      {"table", &crc32c_table}, {"crc32c", &crc32c}};
  if (crc32c_sse42_available()) {
    out.emplace_back("sse42", &crc32c_sse42);
  } else {
    std::cout << "[ INFO     ] no SSE4.2 on this CPU: hardware CRC32C "
                 "path skipped, table path checked\n";
  }
  return out;
}

std::vector<unsigned char> random_bytes(Xoshiro256& rng, std::size_t n) {
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc32cParity, PathsAgreeWithBitwiseReference) {
  Xoshiro256 rng(0xC5C32C);
  const auto all = paths();
  // 8 spare bytes so every start alignment has room for the longest run.
  const auto buf = random_bytes(rng, 4096 + 8);
  // Every length through the 8-byte steps' tails, then a random walk
  // up to 4,096 bytes, then 4,096 itself.
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len < 80; ++len) lens.push_back(len);
  for (std::size_t len = 80; len < 4096; len += 1 + rng.next_below(97)) {
    lens.push_back(len);
  }
  lens.push_back(4096);
  for (const std::size_t len : lens) {
    for (std::size_t align = 0; align < 8; ++align) {
      const unsigned char* p = buf.data() + align;
      const auto seed = static_cast<std::uint32_t>(rng());
      const std::uint32_t want = crc32c_bitwise(p, len, seed);
      for (const auto& [name, crc] : all) {
        ASSERT_EQ(crc(p, len, seed), want)
            << name << " len=" << len << " align=" << align
            << " seed=" << seed;
      }
    }
  }
}

TEST(Crc32cParity, ChainedCallsEqualOneCallOverTheConcatenation) {
  Xoshiro256 rng(0xC4A1);
  const auto all = paths();
  for (int trial = 0; trial < 200; ++trial) {
    const auto buf = random_bytes(rng, rng.next_below(4097));
    const std::size_t cut = rng.next_below(buf.size() + 1);
    const auto seed = static_cast<std::uint32_t>(rng());
    const std::uint32_t whole = crc32c_bitwise(buf.data(), buf.size(), seed);
    for (const auto& [name, crc] : all) {
      const std::uint32_t head = crc(buf.data(), cut, seed);
      EXPECT_EQ(crc(buf.data() + cut, buf.size() - cut, head), whole)
          << name << " size=" << buf.size() << " cut=" << cut;
    }
  }
}

}  // namespace
}  // namespace fastjoin::net
