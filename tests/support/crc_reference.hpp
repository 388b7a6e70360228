// The bytewise frame CRC that slicing-by-16 replaced, kept as the reference
// Buffer::crc32 must equal, and the frame it is computed over.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace cpe::test {

/// CRC-32 update over `n` bytes: reflected 0xEDB88320, one lookup per byte.
inline std::uint32_t reference_crc32_update(std::uint32_t crc,
                                            const void* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc;
}

/// Buffer::crc32's framing of the wire image: per item, the 1-byte type tag
/// (Buffer::Tag order: int32, uint32, int64, float, double, byte, string),
/// the 8-byte host-order element count, then the encoded payload.
struct ReferenceFrame {
  std::uint32_t crc = 0xFFFFFFFFu;
  void item(std::uint8_t tag, std::uint64_t count,
            std::span<const unsigned char> payload) {
    crc = reference_crc32_update(crc, &tag, sizeof tag);
    crc = reference_crc32_update(crc, &count, sizeof count);
    crc = reference_crc32_update(crc, payload.data(), payload.size());
  }
  [[nodiscard]] std::uint32_t value() const { return crc ^ 0xFFFFFFFFu; }
};

}  // namespace cpe::test
