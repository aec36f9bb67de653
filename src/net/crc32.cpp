#include "net/crc32.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace fastjoin::net {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // CRC32C, reflected

struct Tables {
  // t[0] is the classic byte table; t[1..3] extend it so four input
  // bytes fold in one round (slice-by-4).
  std::uint32_t t[4][256];
};

Tables make_tables() {
  Tables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
    tb.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tb.t[0][i];
    for (int s = 1; s < 4; ++s) {
      c = tb.t[0][c & 0xff] ^ (c >> 8);
      tb.t[s][i] = c;
    }
  }
  return tb;
}

const Tables& tables() {
  static const Tables tb = make_tables();
  return tb;
}

}  // namespace

std::uint32_t crc32c_table(const void* data, std::size_t len,
                           std::uint32_t seed) {
  const auto& tb = tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  while (len >= 4) {
    c ^= static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
    c = tb.t[3][c & 0xff] ^ tb.t[2][(c >> 8) & 0xff] ^
        tb.t[1][(c >> 16) & 0xff] ^ tb.t[0][c >> 24];
    p += 4;
    len -= 4;
  }
  while (len--) c = tb.t[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return ~c;
}

#if defined(__x86_64__)

// The instruction computes the same reflected CRC32C update as the
// table walk, without the pre/post inversion, so the seed handling is
// identical. Only this function is compiled for SSE4.2; the rest of the
// binary keeps the baseline target.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~seed;
  while (len >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    c = _mm_crc32_u64(c, v);
    p += 8;
    len -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (len--) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}

bool crc32c_sse42_available() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return ok;
}

#else

std::uint32_t crc32c_sse42(const void* data, std::size_t len,
                           std::uint32_t seed) {
  return crc32c_table(data, len, seed);
}

bool crc32c_sse42_available() { return false; }

#endif

std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t seed) {
  return crc32c_sse42_available() ? crc32c_sse42(data, len, seed)
                                  : crc32c_table(data, len, seed);
}

}  // namespace fastjoin::net
