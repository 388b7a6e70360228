// PVM message buffers: typed pack/unpack with real encoding.
//
// Mirrors the pvm_pk*/pvm_upk* interface.  Data is actually encoded into
// bytes (XDR-style big-endian for Encoding::kDefault, host layout for kRaw),
// so round-trips are functionally exercised: what a task unpacks is exactly
// what its peer packed, byte for byte.  Unpacking is sequential and
// type/length-checked, as PVM's is (mismatches raise Error, PVM's PvmBadMsg).
//
// A message body is packed once and then only read, so copies of a Buffer
// share its encoded payload and keep only their own unpack cursor; a pack or
// corrupt_bit() on a shared payload clones it first (DESIGN.md §13.3).
//
// A float item whose XDR image already exists (Opt's exemplars are stored
// that way) can be packed by reference to it and unpacked as a view of it
// (pk_float_image / upk_float_image): the Buffer shares the image instead
// of encoding a copy, and every reader sees the same bytes an encoded copy
// would hold.  The only copy of a referenced image is made by corrupt_bit(),
// which flips a bit in a private copy and never in the shared block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/assert.hpp"
#include "sim/uninit_alloc.hpp"

namespace cpe::pvm {

/// pvm_initsend encodings.
enum class Encoding : std::uint8_t {
  kDefault = 0,  ///< PvmDataDefault: XDR, heterogeneity-safe
  kRaw = 1,      ///< PvmDataRaw: host byte order, cheaper
  kInPlace = 2,  ///< PvmDataInPlace: no copy at pack time
};

[[nodiscard]] constexpr const char* to_string(Encoding e) {
  switch (e) {
    case Encoding::kDefault: return "Default(XDR)";
    case Encoding::kRaw: return "Raw";
    case Encoding::kInPlace: return "InPlace";
  }
  return "?";
}

/// An immutable run of encoded bytes with shared ownership: the XDR image of
/// a float item that a Buffer packs by reference or hands out as a view.
/// `data` may point into a larger block, which it keeps alive; copies share
/// the bytes, and nothing writes bytes that are shared.
struct SharedBytes {
  std::shared_ptr<const std::byte> data;
  std::size_t size = 0;  ///< bytes
};

class Buffer {
 public:
  /// Every packed item travels with a header: a 4-byte type tag word plus a
  /// 4-byte element-count word (XDR strings' length word is that same count
  /// word).  Charged uniformly by every pack path so `bytes()` — and
  /// therefore the pvm.bytes_routed counter — matches real wire traffic.  The
  /// calib cost model's msg_header_bytes covers the per-*message* envelope
  /// only; per-item headers are accounted here.
  static constexpr std::size_t kItemHeaderBytes = 8;

  /// An empty buffer allocates nothing until the first pack.
  explicit Buffer(Encoding enc = Encoding::kDefault) : enc_(enc) {}

  [[nodiscard]] Encoding encoding() const noexcept { return enc_; }

  /// Encoded size: what travels on the wire.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return p_ ? p_->total_bytes : 0;
  }
  [[nodiscard]] std::size_t item_count() const noexcept {
    return p_ ? p_->items.size() : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return item_count() == 0; }

  // -- Packing ------------------------------------------------------------
  void pk_int(std::span<const std::int32_t> v);
  void pk_uint(std::span<const std::uint32_t> v);
  void pk_long(std::span<const std::int64_t> v);
  void pk_float(std::span<const float> v);
  void pk_double(std::span<const double> v);
  void pk_byte(std::span<const std::byte> v);
  void pk_str(std::string_view s);

  void pk_int(std::int32_t v) { pk_int(std::span<const std::int32_t>(&v, 1)); }
  void pk_uint(std::uint32_t v) {
    pk_uint(std::span<const std::uint32_t>(&v, 1));
  }
  void pk_long(std::int64_t v) {
    pk_long(std::span<const std::int64_t>(&v, 1));
  }
  void pk_float(float v) { pk_float(std::span<const float>(&v, 1)); }
  void pk_double(double v) { pk_double(std::span<const double>(&v, 1)); }

  /// Pack a float item by reference: `image` is the XDR (big-endian) wire
  /// image of image.size / 4 floats, shared instead of copied.  bytes(),
  /// crc32(), upk_float() and the frame CRC see exactly what pk_float() of
  /// those floats would give.  Default encoding only.
  void pk_float_image(SharedBytes image);

  // -- Unpacking (sequential, checked) --------------------------------------
  void upk_int(std::span<std::int32_t> out);
  void upk_uint(std::span<std::uint32_t> out);
  void upk_long(std::span<std::int64_t> out);
  void upk_float(std::span<float> out);
  void upk_double(std::span<double> out);
  void upk_byte(std::span<std::byte> out);
  [[nodiscard]] std::string upk_str();
  /// Unpack a float item as a shared view of its XDR wire image (4 bytes
  /// per float, big-endian), whether the item was encoded into this buffer
  /// or packed by reference: no bytes are decoded or copied.  The view keeps
  /// the bytes alive and unchanged after the buffer is gone or packed into.
  /// Default encoding only.
  [[nodiscard]] SharedBytes upk_float_image();

  [[nodiscard]] std::int32_t upk_int() {
    std::int32_t v;
    upk_int(std::span<std::int32_t>(&v, 1));
    return v;
  }
  [[nodiscard]] std::uint32_t upk_uint() {
    std::uint32_t v;
    upk_uint(std::span<std::uint32_t>(&v, 1));
    return v;
  }
  [[nodiscard]] std::int64_t upk_long() {
    std::int64_t v;
    upk_long(std::span<std::int64_t>(&v, 1));
    return v;
  }
  [[nodiscard]] float upk_float() {
    float v;
    upk_float(std::span<float>(&v, 1));
    return v;
  }
  [[nodiscard]] double upk_double() {
    double v;
    upk_double(std::span<double>(&v, 1));
    return v;
  }

  /// Length (elements) of the next item, or 0 when exhausted.  Lets a
  /// receiver size its arrays before unpacking (PVM's pvm_bufinfo idiom).
  [[nodiscard]] std::size_t next_count() const noexcept;

  /// CRC-32 (IEEE 802.3 polynomial) over the wire image: every item's type
  /// tag, element count, and encoded bytes in pack order.  This is the frame
  /// checksum stamped onto Message wire frames by the sending daemon
  /// (DESIGN.md §7): recomputed on receipt, a mismatch rejects the frame.
  /// Computed once per payload and remembered with it; every pack and
  /// corrupt_bit() forgets it, so the value always matches the bytes.
  [[nodiscard]] std::uint32_t crc32() const noexcept;

  /// Fault injection: flip one bit of the encoded payload (`bit_index` wraps
  /// modulo the total encoded size).  Type tags and counts are left intact —
  /// the damage is to data, detectable only by a content checksum.  No-op on
  /// a buffer with no encoded bytes.  Copies sharing the payload keep the
  /// original bytes, and items packed by reference are first copied into
  /// this buffer's own arena, so the flip never writes a shared block.
  void corrupt_bit(std::size_t bit_index);

  /// Reset the unpack cursor to the first item.
  void rewind() noexcept { cursor_ = 0; }

  /// Items remaining to unpack.
  [[nodiscard]] bool exhausted() const noexcept {
    return cursor_ >= item_count();
  }

 private:
  enum class Tag : std::uint8_t {
    kInt,
    kUint,
    kLong,
    kFloat,
    kDouble,
    kByte,
    kStr
  };
  static constexpr const char* tag_name(Tag t);

  /// Encoded item payloads live in one contiguous arena, appended in pack
  /// order; each Item records only its [offset, offset+size) window.  One
  /// allocation amortized across all items instead of one vector per item.
  /// An item packed by reference holds its image in `ref` instead and takes
  /// no arena bytes; without such items the arena IS the pack-order
  /// concatenation of encoded bytes, which corrupt_bit() indexes.
  struct Item {
    Tag tag;
    std::size_t count;   ///< elements
    std::size_t offset;  ///< into Payload::data (unused when ref is set)
    std::size_t size;    ///< encoded byte length
    std::shared_ptr<const std::byte> ref = {};  ///< referenced image, or null
  };

  /// The encoded message, shared by every copy of the Buffer.
  struct Payload {
    std::vector<Item> items;
    /// Pack order; resize() leaves the new bytes for the encoder.
    sim::UninitVector<std::byte> data;
    std::size_t total_bytes = 0;
    std::optional<std::uint32_t> crc;  ///< crc32() once computed
  };

  /// The payload, made exclusive to this Buffer (created on the first pack,
  /// cloned when shared) with its CRC forgotten: call before any write.
  Payload& writable();
  /// Grow the arena by `n` bytes, returning a pointer to the new region.
  static std::byte* append(Payload& p, std::size_t n) {
    const std::size_t off = p.data.size();
    p.data.resize(off + n);
    return p.data.data() + off;
  }
  [[nodiscard]] const std::byte* payload(const Item& it) const noexcept {
    return it.ref ? it.ref.get() : p_->data.data() + it.offset;
  }

  template <class T>
  void pack_scalar_array(Tag tag, std::span<const T> v);
  template <class T>
  void unpack_scalar_array(Tag tag, std::span<T> out);
  const Item& expect(Tag tag, std::size_t count);

  Encoding enc_;
  std::shared_ptr<Payload> p_;  ///< null until the first pack
  std::size_t cursor_ = 0;
};

}  // namespace cpe::pvm
