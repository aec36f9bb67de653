// The wire frame: length-prefixed, CRC-checked message envelope.
//
// Every byte that crosses a fastjoin socket travels inside one frame:
//
//   offset 0   u32  magic      0x464A4E31 ("FJN1")
//   offset 4   u16  type       FrameType (wire.hpp taxonomy)
//   offset 6   u16  flags      reserved, must be 0
//   offset 8   u32  len        payload bytes (<= max_payload)
//   offset 12  u32  crc        CRC32C over the payload bytes
//   offset 16  ...  payload
//
// All integers are little-endian (serialized field-by-field with
// memcpy, same idiom as ingest/log_record.hpp — the toolchain targets
// are all little-endian and the format is independent of struct
// padding).
//
// FrameDecoder is incremental: feed it whatever the socket produced —
// single bytes, half a header, three frames and a torn fourth — and it
// emits complete validated frames. Any violation (bad magic, nonzero
// flags, oversized length, CRC mismatch) is sticky: the decoder stops,
// reports the error, and the connection must be torn down — a stream
// that has lost framing cannot be resynchronized safely. A torn frame
// at EOF is detected by `mid_frame()`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fastjoin::net {

inline constexpr std::uint32_t kFrameMagic = 0x464A4E31u;  // "FJN1"
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Default payload ceiling. No frame carries a whole store (a worker is
/// rebuilt from the router's log); the largest are a migration's
/// extracted tuples and a collected match batch, so this is generous,
/// and anything larger is a protocol bug or corruption.
inline constexpr std::uint32_t kDefaultMaxPayload = 64u << 20;

/// One complete, CRC-validated frame as produced by the decoder.
struct Frame {
  std::uint16_t type = 0;
  std::vector<std::byte> payload;
};

/// Write the kFrameHeaderBytes header of a frame carrying `len` bytes
/// at `payload` (CRC included) to `out`. The payload is not copied: a
/// sender that queues frames appends it after the header itself.
void encode_frame_header(std::byte* out, std::uint16_t type,
                         const void* payload, std::size_t len);

/// Serialize a frame: header + payload, ready for the socket.
std::vector<std::byte> encode_frame(std::uint16_t type,
                                    const void* payload, std::size_t len);
inline std::vector<std::byte> encode_frame(
    std::uint16_t type, const std::vector<std::byte>& payload) {
  return encode_frame(type, payload.data(), payload.size());
}

class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  /// Consume `len` raw bytes. Complete frames are appended to `out`.
  /// Returns false once the stream is broken (error() explains); the
  /// decoder then ignores further input.
  bool feed(const void* data, std::size_t len, std::vector<Frame>& out);

  /// True when bytes of an incomplete frame are buffered — at EOF this
  /// means the peer died mid-frame (the truncated tail is discarded,
  /// never delivered).
  bool mid_frame() const { return !broken_ && buf_.size() > 0; }

  bool broken() const { return broken_; }
  const std::string& error() const { return error_; }

  std::uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  bool fail(std::string msg);

  std::uint32_t max_payload_;
  std::vector<std::byte> buf_;
  bool broken_ = false;
  std::string error_;
  std::uint64_t frames_decoded_ = 0;
};

}  // namespace fastjoin::net
