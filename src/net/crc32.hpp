// CRC32C (Castagnoli) over byte ranges — the frame-integrity checksum
// of the net layer.
//
// Every frame is checksummed twice: once when the sender queues it and
// once when the receiver decodes it, so the CRC is the per-byte cost of
// the transport. The slice-by-4 table walk runs at ~1.3 µs/KiB on a
// 4-vCPU Xeon VM, which made it most of a frame flush (a 256-entry kData
// frame is ~10.5 KiB); the SSE4.2 `crc32` instruction, 8 bytes per
// step, runs at ~0.17 µs/KiB there. crc32c() uses the instruction when
// the CPU has it (checked once at run time) and falls back to the table
// walk on other CPUs and targets. Both paths give the same result for
// the same input and seed, so the wire format is identical on every
// build. The polynomial matches iSCSI/ext4 (0x1EDC6F41, reflected
// 0x82F63B78), so frames can be checked with any standard crc32c tool
// when debugging captures.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fastjoin::net {

/// CRC32C of `len` bytes at `data`, seeded with `seed` (pass a previous
/// result to continue a running checksum; 0 for a fresh one).
std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t seed = 0);

/// The two paths behind crc32c(), named so a parity test can run each.
/// crc32c_table() runs anywhere. crc32c_sse42() may only be called when
/// crc32c_sse42_available() is true.
std::uint32_t crc32c_table(const void* data, std::size_t len,
                           std::uint32_t seed = 0);
std::uint32_t crc32c_sse42(const void* data, std::size_t len,
                           std::uint32_t seed = 0);
bool crc32c_sse42_available();

}  // namespace fastjoin::net
