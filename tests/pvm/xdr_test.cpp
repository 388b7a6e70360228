// The XDR encode/decode loops behind pk_*/upk_* for 4- and 8-byte values.
// Vectorized, a loop runs blocks of 16 values, then shorter vectors and a
// scalar tail, so every length from 0 to 67 is packed (each remainder after
// up to four blocks), plus one long array.  The packed bytes must be the
// big-endian image of each value (host order for raw), checked through the
// frame CRC against a bytewise reference, and every value must come back
// with the same bit pattern.
//
// A float item packed by reference to its XDR image (pk_float_image) must
// be indistinguishable from the encoded item at the same lengths, and
// corrupting such a buffer must never write the shared image.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
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

/// A few int32 and byte items, as random as `rng` makes them; `into`
/// packs them and `sizes` gets each item's encoded length.
struct Filler {
  std::vector<std::int32_t> ints;
  std::vector<std::byte> raw;

  explicit Filler(sim::Rng& rng)
      : ints(rng.below(4)), raw(rng.below(6)) {
    for (std::int32_t& v : ints) v = static_cast<std::int32_t>(rng.next_u64());
    for (std::byte& v : raw) v = static_cast<std::byte>(rng.next_u64());
  }
  void into(Buffer& b) const {
    b.pk_int(ints);
    b.pk_byte(raw);
  }
  void expect_from(Buffer& b) const {
    std::vector<std::int32_t> i(b.next_count());
    b.upk_int(i);
    EXPECT_EQ(i, ints);
    std::vector<std::byte> r(b.next_count());
    b.upk_byte(r);
    EXPECT_EQ(r, raw);
  }
  [[nodiscard]] std::size_t encoded_bytes() const {
    return ints.size() * 4 + raw.size();
  }
};

/// FNV-1a over a block's bytes.
std::uint64_t hash_bytes(std::span<const std::byte> b) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::byte x : b)
    h = (h ^ std::to_integer<std::uint64_t>(x)) * 1099511628211ull;
  return h;
}

TEST(BufferXdr, FloatImageByReferenceReadsAsTheEncodedItem) {
  sim::Rng rng(6);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 67; ++n) lengths.push_back(n);
  lengths.push_back(1'000'003);
  for (const std::size_t n : lengths) {
    std::vector<float> v(n);
    for (float& x : v)
      x = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64()));
    const std::vector<unsigned char> img =
        reference_image(std::span<const float>(v), Encoding::kDefault);
    std::shared_ptr<std::byte[]> block =
        std::make_shared_for_overwrite<std::byte[]>(img.size());
    if (!img.empty()) std::memcpy(block.get(), img.data(), img.size());
    const SharedBytes image{
        std::shared_ptr<const std::byte>(block, block.get()), img.size()};
    const Filler before(rng), after(rng);

    Buffer encoded, referenced;
    before.into(encoded);
    before.into(referenced);
    encoded.pk_float(v);
    referenced.pk_float_image(image);
    after.into(encoded);
    after.into(referenced);
    ASSERT_EQ(referenced.bytes(), encoded.bytes()) << "n = " << n;
    ASSERT_EQ(referenced.crc32(), encoded.crc32()) << "n = " << n;

    for (Buffer* b : {&encoded, &referenced}) {
      // Unpacked as floats...
      Buffer values(*b);
      before.expect_from(values);
      ASSERT_EQ(values.next_count(), n);
      std::vector<float> back(n);
      values.upk_float(back);
      ASSERT_EQ(std::memcmp(back.data(), v.data(), n * sizeof(float)), 0)
          << "n = " << n;
      after.expect_from(values);
      EXPECT_TRUE(values.exhausted());
      // ...and as a view of exactly the item's bytes.
      Buffer view(*b);
      before.expect_from(view);
      const SharedBytes got = view.upk_float_image();
      ASSERT_EQ(got.size, img.size());
      if (n != 0) {
        ASSERT_EQ(std::memcmp(got.data.get(), img.data(), img.size()), 0)
            << "n = " << n;
      }
      after.expect_from(view);
      if (b == &referenced) {
        EXPECT_EQ(got.data.get(), image.data.get());
      }
    }

    // Corruption copies the referenced image before flipping a bit: the
    // block hashes the same afterwards, the garbled frame does not.
    if (n == 0) continue;
    const std::span<const std::byte> shared(image.data.get(), image.size);
    const std::uint64_t block_hash = hash_bytes(shared);
    const std::uint32_t crc = referenced.crc32();
    const std::size_t image_bit =
        8 * before.encoded_bytes() + rng.below(8 * n * 4);
    const std::size_t any_bit = rng.below(referenced.bytes() * 8);
    for (const std::size_t bit : {image_bit, any_bit}) {
      Buffer garbled(referenced);
      garbled.corrupt_bit(bit);
      EXPECT_NE(garbled.crc32(), crc) << "n = " << n << " bit " << bit;
      EXPECT_EQ(garbled.bytes(), referenced.bytes());
      EXPECT_EQ(hash_bytes(shared), block_hash) << "n = " << n;
      EXPECT_EQ(referenced.crc32(), crc);
    }
  }
}

}  // namespace
}  // namespace cpe::pvm
