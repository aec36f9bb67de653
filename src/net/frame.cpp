// FASTJOIN_PARSE_FILE — frame reassembly over raw socket bytes; must
// stay total over arbitrary input (see parse-surface lint rule).
#include "net/frame.hpp"

#include <cstring>

#include "net/crc32.hpp"

namespace fastjoin::net {
namespace {

void put_u16(std::byte* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
std::uint16_t get_u16(const std::byte* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

void encode_frame_header(std::byte* out, std::uint16_t type,
                         const void* payload, std::size_t len) {
  put_u32(out, kFrameMagic);
  put_u16(out + 4, type);
  put_u16(out + 6, 0);
  put_u32(out + 8, static_cast<std::uint32_t>(len));
  put_u32(out + 12, crc32c(payload, len));
}

std::vector<std::byte> encode_frame(std::uint16_t type,
                                    const void* payload,
                                    std::size_t len) {
  std::vector<std::byte> out(kFrameHeaderBytes + len);
  encode_frame_header(out.data(), type, payload, len);
  if (len) std::memcpy(out.data() + kFrameHeaderBytes, payload, len);
  return out;
}

bool FrameDecoder::fail(std::string msg) {
  broken_ = true;
  error_ = std::move(msg);
  buf_.clear();
  return false;
}

bool FrameDecoder::feed(const void* data, std::size_t len,
                        std::vector<Frame>& out) {
  if (broken_) return false;
  const auto* p = static_cast<const std::byte*>(data);
  buf_.insert(buf_.end(), p, p + len);
  std::size_t pos = 0;
  while (buf_.size() - pos >= kFrameHeaderBytes) {
    const std::byte* h = buf_.data() + pos;
    if (get_u32(h) != kFrameMagic) return fail("bad frame magic");
    if (get_u16(h + 6) != 0) return fail("nonzero frame flags");
    const std::uint32_t plen = get_u32(h + 8);
    if (plen > max_payload_) {
      return fail("oversized frame: " + std::to_string(plen) +
                  " > max " + std::to_string(max_payload_));
    }
    if (buf_.size() - pos < kFrameHeaderBytes + plen) break;  // torn
    const std::uint32_t want = get_u32(h + 12);
    const std::byte* body = h + kFrameHeaderBytes;
    if (crc32c(body, plen) != want) return fail("frame CRC mismatch");
    Frame f;
    f.type = get_u16(h + 4);
    f.payload.assign(body, body + plen);
    out.push_back(std::move(f));
    ++frames_decoded_;
    pos += kFrameHeaderBytes + plen;
  }
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

}  // namespace fastjoin::net
