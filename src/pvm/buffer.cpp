#include "pvm/buffer.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace cpe::pvm {

namespace {

template <class T>
using UintFor = std::conditional_t<
    sizeof(T) == 4, std::uint32_t,
    std::conditional_t<sizeof(T) == 8, std::uint64_t, void>>;

// std::byteswap is C++23; GCC 12 in C++20 mode lacks it.
constexpr std::uint32_t byteswap(std::uint32_t v) {
  return __builtin_bswap32(v);
}
constexpr std::uint64_t byteswap(std::uint64_t v) {
  return __builtin_bswap64(v);
}

/// Encode one value: big-endian for the XDR-style default encoding, host
/// order for raw.  (This host is little-endian x86, so kDefault really does
/// swap — the cost PVM pays for heterogeneity.)
template <class T>
void encode_value(std::byte* out, T v, Encoding enc) {
  auto bits = std::bit_cast<UintFor<T>>(v);
  if (enc == Encoding::kDefault) bits = byteswap(bits);
  std::memcpy(out, &bits, sizeof(bits));
}

template <class T>
[[nodiscard]] T decode_value(const std::byte* in, Encoding enc) {
  UintFor<T> bits;
  std::memcpy(&bits, in, sizeof(bits));
  if (enc == Encoding::kDefault) bits = byteswap(bits);
  return std::bit_cast<T>(bits);
}

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), slicing-by-16: table k maps a
// byte to its CRC contribution k bytes ahead of the register, so one step
// folds 16 input bytes with 16 independent lookups.  Same values as the
// bytewise table walk, which handles the tail.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}
constexpr Crc32Tables kCrc32 = make_crc32_tables();

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (; n >= 16; n -= 16, p += 16) {
    // The register meets the first four bytes little-endian; assembling
    // them bytewise keeps the kernel independent of host byte order.
    const std::uint32_t x =
        crc ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    crc = kCrc32[15][x & 0xFFu] ^ kCrc32[14][(x >> 8) & 0xFFu] ^
          kCrc32[13][(x >> 16) & 0xFFu] ^ kCrc32[12][x >> 24] ^
          kCrc32[11][p[4]] ^ kCrc32[10][p[5]] ^ kCrc32[9][p[6]] ^
          kCrc32[8][p[7]] ^ kCrc32[7][p[8]] ^ kCrc32[6][p[9]] ^
          kCrc32[5][p[10]] ^ kCrc32[4][p[11]] ^ kCrc32[3][p[12]] ^
          kCrc32[2][p[13]] ^ kCrc32[1][p[14]] ^ kCrc32[0][p[15]];
  }
  for (; n > 0; --n, ++p) crc = kCrc32[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

}  // namespace

std::uint32_t Buffer::crc32() const noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const Item& it : items_) {
    const std::uint8_t tag = static_cast<std::uint8_t>(it.tag);
    const std::uint64_t count = it.count;
    crc = crc32_update(crc, &tag, sizeof(tag));
    crc = crc32_update(crc, &count, sizeof(count));
    crc = crc32_update(crc, payload(it), it.size);
  }
  return crc ^ 0xFFFFFFFFu;
}

void Buffer::corrupt_bit(std::size_t bit_index) noexcept {
  // The arena is the pack-order concatenation of every item's encoded
  // bytes, so the historical "index into the concatenation" semantics are
  // a direct index into data_.
  if (data_.empty()) return;
  const std::size_t byte_index = (bit_index / 8) % data_.size();
  const auto mask = static_cast<std::byte>(1u << (bit_index % 8));
  data_[byte_index] ^= mask;
}

constexpr const char* Buffer::tag_name(Tag t) {
  switch (t) {
    case Tag::kInt: return "int32";
    case Tag::kUint: return "uint32";
    case Tag::kLong: return "int64";
    case Tag::kFloat: return "float";
    case Tag::kDouble: return "double";
    case Tag::kByte: return "byte";
    case Tag::kStr: return "string";
  }
  return "?";
}

template <class T>
void Buffer::pack_scalar_array(Tag tag, std::span<const T> v) {
  const std::size_t nbytes = v.size() * sizeof(T);
  const std::size_t off = data_.size();
  std::byte* enc = append(nbytes);
  for (std::size_t i = 0; i < v.size(); ++i)
    encode_value(enc + i * sizeof(T), v[i], enc_);
  total_bytes_ += kItemHeaderBytes + nbytes;
  items_.push_back(Item{tag, v.size(), off, nbytes});
}

template <class T>
void Buffer::unpack_scalar_array(Tag tag, std::span<T> out) {
  const Item& item = expect(tag, out.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = decode_value<T>(payload(item) + i * sizeof(T), enc_);
}

const Buffer::Item& Buffer::expect(Tag tag, std::size_t count) {
  if (cursor_ >= items_.size())
    throw Error("Buffer: unpack past end of message");
  const Item& item = items_[cursor_];
  if (item.tag != tag)
    throw Error(std::string("Buffer: type mismatch: packed ") +
                tag_name(item.tag) + ", unpacking " + tag_name(tag));
  if (item.count != count)
    throw Error("Buffer: length mismatch: packed " +
                std::to_string(item.count) + " elements, unpacking " +
                std::to_string(count));
  ++cursor_;
  return item;
}

void Buffer::pk_int(std::span<const std::int32_t> v) {
  pack_scalar_array(Tag::kInt, v);
}
void Buffer::pk_uint(std::span<const std::uint32_t> v) {
  pack_scalar_array(Tag::kUint, v);
}
void Buffer::pk_long(std::span<const std::int64_t> v) {
  pack_scalar_array(Tag::kLong, v);
}
void Buffer::pk_float(std::span<const float> v) {
  pack_scalar_array(Tag::kFloat, v);
}
void Buffer::pk_double(std::span<const double> v) {
  pack_scalar_array(Tag::kDouble, v);
}

void Buffer::pk_byte(std::span<const std::byte> v) {
  // Bytes are encoding-invariant: straight copy either way.
  const std::size_t off = data_.size();
  std::byte* enc = append(v.size());
  if (!v.empty()) std::memcpy(enc, v.data(), v.size());
  total_bytes_ += kItemHeaderBytes + v.size();
  items_.push_back(Item{Tag::kByte, v.size(), off, v.size()});
}

void Buffer::pk_str(std::string_view s) {
  const std::size_t off = data_.size();
  std::byte* enc = append(s.size());
  if (!s.empty()) std::memcpy(enc, s.data(), s.size());
  // The XDR length word is the header's count word — no extra charge.
  total_bytes_ += kItemHeaderBytes + s.size();
  items_.push_back(Item{Tag::kStr, s.size(), off, s.size()});
}

void Buffer::upk_int(std::span<std::int32_t> out) {
  unpack_scalar_array(Tag::kInt, out);
}
void Buffer::upk_uint(std::span<std::uint32_t> out) {
  unpack_scalar_array(Tag::kUint, out);
}
void Buffer::upk_long(std::span<std::int64_t> out) {
  unpack_scalar_array(Tag::kLong, out);
}
void Buffer::upk_float(std::span<float> out) {
  unpack_scalar_array(Tag::kFloat, out);
}
void Buffer::upk_double(std::span<double> out) {
  unpack_scalar_array(Tag::kDouble, out);
}

void Buffer::upk_byte(std::span<std::byte> out) {
  const Item& item = expect(Tag::kByte, out.size());
  if (!out.empty()) std::memcpy(out.data(), payload(item), out.size());
}

std::string Buffer::upk_str() {
  if (cursor_ >= items_.size())
    throw Error("Buffer: unpack past end of message");
  const Item& item = items_[cursor_];
  if (item.tag != Tag::kStr)
    throw Error(std::string("Buffer: type mismatch: packed ") +
                tag_name(item.tag) + ", unpacking string");
  ++cursor_;
  std::string s(item.size, '\0');
  if (item.size != 0) std::memcpy(s.data(), payload(item), item.size);
  return s;
}

std::size_t Buffer::next_count() const noexcept {
  return cursor_ < items_.size() ? items_[cursor_].count : 0;
}

}  // namespace cpe::pvm
