#include "pvm/buffer.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <utility>

namespace cpe::pvm {

namespace {

/// Copy `n` values of `Size` bytes each from `in` to `out` (which must not
/// overlap) with the bytes of every value reversed.  Written as bytewise
/// stores rather than a per-value bswap so that GCC -O3 vectorizes it at the
/// baseline x86-64 ISA, which has no byte shuffle: it splits 16-byte blocks
/// into byte lanes and interleaves them back in reverse order
/// (punpck/pack).  The stores of one value are unrolled so that -O2, which
/// does not vectorize this loop, still moves a value per iteration.
template <std::size_t Size, std::size_t... K>
void reverse_one(unsigned char* out, const unsigned char* in,
                 std::index_sequence<K...>) {
  ((out[K] = in[Size - 1 - K]), ...);
}

template <std::size_t Size>
void reverse_each(unsigned char* out, const unsigned char* in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    reverse_one<Size>(out + i * Size, in + i * Size,
                      std::make_index_sequence<Size>{});
}

/// Encode `v` into `out`: big-endian for the XDR-style default encoding,
/// host order (a plain copy) for raw.  (On a little-endian host such as
/// x86, kDefault really does reorder bytes — the cost PVM pays for
/// heterogeneity.)  The encoding is chosen once per array, not per value:
/// a store through std::byte* may alias the Buffer, so a member read in the
/// loop would be reloaded and re-tested for every value.
template <class T>
void encode_array(std::byte* out, std::span<const T> v, Encoding enc) {
  if (v.empty()) return;
  if (enc != Encoding::kDefault || std::endian::native == std::endian::big) {
    std::memcpy(out, v.data(), v.size_bytes());
    return;
  }
  reverse_each<sizeof(T)>(reinterpret_cast<unsigned char*>(out),
                          reinterpret_cast<const unsigned char*>(v.data()),
                          v.size());
}

template <class T>
void decode_array(std::span<T> out, const std::byte* in, Encoding enc) {
  if (out.empty()) return;
  if (enc != Encoding::kDefault || std::endian::native == std::endian::big) {
    std::memcpy(out.data(), in, out.size_bytes());
    return;
  }
  reverse_each<sizeof(T)>(reinterpret_cast<unsigned char*>(out.data()),
                          reinterpret_cast<const unsigned char*>(in),
                          out.size());
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
  if (!p_) return 0;  // no items: the empty wire image
  if (!p_->crc) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const Item& it : p_->items) {
      const std::uint8_t tag = static_cast<std::uint8_t>(it.tag);
      const std::uint64_t count = it.count;
      crc = crc32_update(crc, &tag, sizeof(tag));
      crc = crc32_update(crc, &count, sizeof(count));
      crc = crc32_update(crc, payload(it), it.size);
    }
    p_->crc = crc ^ 0xFFFFFFFFu;
  }
  return *p_->crc;
}

void Buffer::corrupt_bit(std::size_t bit_index) {
  // The arena is the pack-order concatenation of every item's encoded
  // bytes, so the historical "index into the concatenation" semantics are
  // a direct index into it.
  if (!p_ || p_->data.empty()) return;
  Payload& p = writable();
  const std::size_t byte_index = (bit_index / 8) % p.data.size();
  const auto mask = static_cast<std::byte>(1u << (bit_index % 8));
  p.data[byte_index] ^= mask;
}

Buffer::Payload& Buffer::writable() {
  if (!p_)
    p_ = std::make_shared<Payload>();
  else if (p_.use_count() > 1)
    p_ = std::make_shared<Payload>(*p_);
  p_->crc.reset();
  return *p_;
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
  Payload& p = writable();
  const std::size_t nbytes = v.size() * sizeof(T);
  const std::size_t off = p.data.size();
  encode_array(append(p, nbytes), v, enc_);
  p.total_bytes += kItemHeaderBytes + nbytes;
  p.items.push_back(Item{tag, v.size(), off, nbytes});
}

template <class T>
void Buffer::unpack_scalar_array(Tag tag, std::span<T> out) {
  decode_array(out, payload(expect(tag, out.size())), enc_);
}

const Buffer::Item& Buffer::expect(Tag tag, std::size_t count) {
  if (exhausted()) throw Error("Buffer: unpack past end of message");
  const Item& item = p_->items[cursor_];
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
  Payload& p = writable();
  const std::size_t off = p.data.size();
  std::byte* enc = append(p, v.size());
  if (!v.empty()) std::memcpy(enc, v.data(), v.size());
  p.total_bytes += kItemHeaderBytes + v.size();
  p.items.push_back(Item{Tag::kByte, v.size(), off, v.size()});
}

void Buffer::pk_str(std::string_view s) {
  Payload& p = writable();
  const std::size_t off = p.data.size();
  std::byte* enc = append(p, s.size());
  if (!s.empty()) std::memcpy(enc, s.data(), s.size());
  // The XDR length word is the header's count word — no extra charge.
  p.total_bytes += kItemHeaderBytes + s.size();
  p.items.push_back(Item{Tag::kStr, s.size(), off, s.size()});
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
  if (exhausted()) throw Error("Buffer: unpack past end of message");
  const Item& item = p_->items[cursor_];
  if (item.tag != Tag::kStr)
    throw Error(std::string("Buffer: type mismatch: packed ") +
                tag_name(item.tag) + ", unpacking string");
  ++cursor_;
  std::string s(item.size, '\0');
  if (item.size != 0) std::memcpy(s.data(), payload(item), item.size);
  return s;
}

std::size_t Buffer::next_count() const noexcept {
  return exhausted() ? 0 : p_->items[cursor_].count;
}

}  // namespace cpe::pvm
