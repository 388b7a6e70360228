// The XDR encode/decode loops behind pk_*/upk_* for 4- and 8-byte values.
// Vectorized, a loop runs blocks of 16 values, then shorter vectors and a
// scalar tail, so every length from 0 to 67 is packed (each remainder after
// up to four blocks), plus one long array.  The packed bytes must be the
// big-endian image of each value (host order for raw), checked through the
// frame CRC against a bytewise reference, and every value must come back
// with the same bit pattern.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "pvm/buffer.hpp"
#include "sim/random.hpp"
#include "support/crc_reference.hpp"

namespace cpe::pvm {
namespace {

template <class T>
using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

// Buffer::Tag of each element type, as the frame CRC hashes it.
template <class T>
constexpr std::uint8_t kTag = std::is_same_v<T, std::int32_t>    ? 0
                              : std::is_same_v<T, std::uint32_t> ? 1
                              : std::is_same_v<T, std::int64_t>  ? 2
                              : std::is_same_v<T, float>         ? 3
                                                                 : 4;

template <class T>
void pack(Buffer& b, std::span<const T> v) {
  if constexpr (std::is_same_v<T, float>) b.pk_float(v);
  if constexpr (std::is_same_v<T, double>) b.pk_double(v);
  if constexpr (std::is_same_v<T, std::int32_t>) b.pk_int(v);
  if constexpr (std::is_same_v<T, std::uint32_t>) b.pk_uint(v);
  if constexpr (std::is_same_v<T, std::int64_t>) b.pk_long(v);
}

template <class T>
void unpack(Buffer& b, std::span<T> out) {
  if constexpr (std::is_same_v<T, float>) b.upk_float(out);
  if constexpr (std::is_same_v<T, double>) b.upk_double(out);
  if constexpr (std::is_same_v<T, std::int32_t>) b.upk_int(out);
  if constexpr (std::is_same_v<T, std::uint32_t>) b.upk_uint(out);
  if constexpr (std::is_same_v<T, std::int64_t>) b.upk_long(out);
}

/// The wire image of `v`, built a byte at a time: most significant byte
/// first for XDR, the value's own bytes for raw.
template <class T>
std::vector<unsigned char> reference_image(std::span<const T> v,
                                           Encoding enc) {
  std::vector<unsigned char> img(v.size_bytes());
  for (std::size_t i = 0; i < v.size(); ++i) {
    unsigned char* out = img.data() + i * sizeof(T);
    if (enc == Encoding::kRaw) {
      std::memcpy(out, &v[i], sizeof(T));
      continue;
    }
    const auto bits = std::bit_cast<Bits<T>>(v[i]);
    for (std::size_t k = 0; k < sizeof(T); ++k)
      out[k] = static_cast<unsigned char>(bits >> (8 * (sizeof(T) - 1 - k)));
  }
  return img;
}

template <class T>
void check_every_length(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 67; ++n) lengths.push_back(n);
  lengths.push_back(1'000'003);
  for (const Encoding enc : {Encoding::kDefault, Encoding::kRaw}) {
    for (const std::size_t n : lengths) {
      // Random bit patterns: every byte lane differs from its neighbours,
      // NaN payloads included for float and double.
      std::vector<T> v(n);
      for (T& x : v)
        x = std::bit_cast<T>(static_cast<Bits<T>>(rng.next_u64()));
      Buffer b(enc);
      pack(b, std::span<const T>(v));
      ASSERT_EQ(b.bytes(), Buffer::kItemHeaderBytes + n * sizeof(T));
      test::ReferenceFrame ref;
      ref.item(kTag<T>, n, reference_image(std::span<const T>(v), enc));
      ASSERT_EQ(b.crc32(), ref.value())
          << to_string(enc) << " packed bytes differ, n = " << n;
      std::vector<T> back(n);
      unpack(b, std::span<T>(back));
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(std::bit_cast<Bits<T>>(back[i]),
                  std::bit_cast<Bits<T>>(v[i]))
            << to_string(enc) << " n = " << n << " value " << i;
    }
  }
}

TEST(BufferXdr, FloatArraysAtEveryLength) { check_every_length<float>(1); }
TEST(BufferXdr, Int32ArraysAtEveryLength) {
  check_every_length<std::int32_t>(2);
}
TEST(BufferXdr, Uint32ArraysAtEveryLength) {
  check_every_length<std::uint32_t>(3);
}
TEST(BufferXdr, Int64ArraysAtEveryLength) {
  check_every_length<std::int64_t>(4);
}
TEST(BufferXdr, DoubleArraysAtEveryLength) { check_every_length<double>(5); }

}  // namespace
}  // namespace cpe::pvm
