#include "apps/opt/exemplars.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <new>

namespace cpe::opt {

namespace {

constexpr auto kDim = static_cast<std::size_t>(kInputDim);
constexpr std::size_t kStride = ExemplarSet::kStride;
/// Wire bytes per exemplar.
constexpr std::size_t kBytes = calib::OptWorkload::exemplar_bytes;
static_assert(kBytes == kStride * sizeof(float));

/// Class centers on a coarse deterministic grid, each coordinate in
/// [-1, ~0.85]; row c is class c's center.
constexpr std::array<double, kClasses * kInputDim> kCenters = [] {
  std::array<double, kClasses * kInputDim> centers{};
  for (int c = 0; c < kClasses; ++c)
    for (int d = 0; d < kInputDim; ++d)
      centers[static_cast<std::size_t>(c * kInputDim + d)] =
          ((c * 31 + d * 7) % 13) / 6.5 - 1.0;
  return centers;
}();

constexpr double kClusterSigma = 0.25;

/// The bit pattern of the big-endian float at `p`.  Assembled bytewise, so
/// it reads the same on any host (GCC folds it into one load and a bswap).
std::uint32_t load_be(const std::byte* p) {
  return std::to_integer<std::uint32_t>(p[0]) << 24 |
         std::to_integer<std::uint32_t>(p[1]) << 16 |
         std::to_integer<std::uint32_t>(p[2]) << 8 |
         std::to_integer<std::uint32_t>(p[3]);
}

void store_be(std::byte* p, float f) {
  const auto v = std::bit_cast<std::uint32_t>(f);
  p[0] = static_cast<std::byte>(v >> 24);
  p[1] = static_cast<std::byte>(v >> 16);
  p[2] = static_cast<std::byte>(v >> 8);
  p[3] = static_cast<std::byte>(v);
}

/// The category of the exemplar whose wire image starts at `e`.
int category_at(const std::byte* e) {
  return static_cast<int>(std::bit_cast<float>(load_be(e + kDim * 4)));
}

/// The sum of checksum()'s per-exemplar terms over exemplars [0, n): for
/// each, FNV-1a over the 64 feature bit patterns, then the category.
/// `feature(i, d)` is exemplar i's feature d as bits, `category(i)` its
/// category.  Four exemplars' chains run interleaved, held in four
/// registers, so that their multiplies overlap instead of waiting on one
/// another; each chain, and so the sum, is what hashing one exemplar at a
/// time gives.
template <class Feature, class Category>
std::uint64_t hash_sum(std::size_t n, Feature feature, Category category) {
  constexpr std::uint64_t kBasis = 1469598103934665603ull;
  const auto mix = [](std::uint64_t h, std::uint32_t v) {
    return (h ^ v) * 1099511628211ull;
  };
  const auto finish = [&](std::uint64_t h, std::size_t i) {
    return mix(h, static_cast<std::uint32_t>(category(i)));
  };
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint64_t h0 = kBasis, h1 = kBasis, h2 = kBasis, h3 = kBasis;
    for (std::size_t d = 0; d < kDim; ++d) {
      h0 = mix(h0, feature(i, d));
      h1 = mix(h1, feature(i + 1, d));
      h2 = mix(h2, feature(i + 2, d));
      h3 = mix(h3, feature(i + 3, d));
    }
    sum += finish(h0, i) + finish(h1, i + 1) + finish(h2, i + 2) +
           finish(h3, i + 3);
  }
  for (; i < n; ++i) {
    std::uint64_t h = kBasis;
    for (std::size_t d = 0; d < kDim; ++d) h = mix(h, feature(i, d));
    sum += finish(h, i);
  }
  return sum;
}

/// A fresh block of `n` bytes for exemplar images, mapped from the kernel
/// and unmapped when its last view goes; empty when `n` is 0.  Blocks are
/// megabytes each, and through malloc they would land wherever glibc's
/// moving mmap threshold put them, so the heap could keep a freed block's
/// pages while a later one was mapped beside them.  Huge pages, where the
/// kernel grants them, cut the first-touch faults of writing a block.
std::shared_ptr<std::byte[]> map_block(std::size_t n) {
  if (n == 0) return {};
  void* p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  ::madvise(p, n, MADV_HUGEPAGE);
  return {static_cast<std::byte*>(p), [n](std::byte* b) { ::munmap(b, n); }};
}

/// A shared view of `size` bytes at `p` inside the block `owner` keeps
/// alive.
template <class Owner>
pvm::SharedBytes view(const std::shared_ptr<Owner>& owner, const std::byte* p,
                      std::size_t size) {
  return {std::shared_ptr<const std::byte>(owner, p), size};
}

}  // namespace

ExemplarSet ExemplarSet::synthesize(std::size_t n, sim::Rng& rng) {
  ExemplarSet set;
  set.processed_.assign(n, 0);
  set.unprocessed_ = n;
  const std::shared_ptr<std::byte[]> block = map_block(n * kBytes);

  // Cluster noise on top of the class center, four exemplars at a time:
  // drawn as host floats into a scratch block that stays in L1, hashed
  // there for checksum(), then stored big-endian as the wire image.
  // Hashing outside the draw loop keeps that loop's dependency chain short
  // (43.5 against 39.3 ms for a 20.8 MB set, GCC 12 -O3, Xeon VM).
  std::array<float, 4 * kStride> host{};
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; i += 4) {
    const std::size_t m = std::min<std::size_t>(4, n - i);
    for (std::size_t k = 0; k < m; ++k) {
      const std::uint64_t c = rng.below(kClasses);
      const double* center = kCenters.data() + c * kDim;
      float* e = host.data() + k * kStride;
      for (std::size_t d = 0; d < kDim; ++d)
        e[d] = static_cast<float>(center[d] +
                                  kClusterSigma * rng.normal_ziggurat());
      e[kDim] = static_cast<float>(c);
    }
    sum += hash_sum(
        m,
        [&host](std::size_t k, std::size_t d) {
          return std::bit_cast<std::uint32_t>(host[k * kStride + d]);
        },
        [&host](std::size_t k) {
          return static_cast<int>(host[k * kStride + kDim]);
        });
    std::byte* out = block.get() + i * kBytes;
    for (std::size_t f = 0; f < m * kStride; ++f)
      store_be(out + f * 4, host[f]);
  }
  set.checksum_ = sum;
  if (n != 0) set.segs_.push_back(view(block, block.get(), n * kBytes));
  return set;
}

void ExemplarSet::recount_flags() {
  unprocessed_ = static_cast<std::size_t>(
      std::count(processed_.begin(), processed_.end(), std::uint8_t{0}));
  first_unprocessed_ = static_cast<std::size_t>(
      std::find(processed_.begin(), processed_.end(), std::uint8_t{0}) -
      processed_.begin());
}

const std::byte* ExemplarSet::at(std::size_t i) const {
  CPE_EXPECTS(i < size());
  std::size_t off = i * kBytes;
  auto s = segs_.begin();
  while (off >= s->size) off -= (s++)->size;
  return s->data.get() + off;
}

ExemplarSet::Features ExemplarSet::features(std::size_t i) const {
  const std::byte* e = at(i);
  Features f{};
  for (std::size_t d = 0; d < kDim; ++d)
    f[d] = std::bit_cast<float>(load_be(e + d * 4));
  return f;
}

int ExemplarSet::category(std::size_t i) const { return category_at(at(i)); }

ExemplarSet ExemplarSet::take_back(std::size_t count) {
  CPE_EXPECTS(count <= size());
  const std::size_t keep = size() - count;
  ExemplarSet out;
  // Whole segments from the back, then the tail of the one the cut falls
  // in, which both sides then share.
  std::size_t need = count * kBytes;
  std::size_t whole = segs_.size();
  while (need > 0 && segs_[whole - 1].size <= need) need -= segs_[--whole].size;
  if (need > 0) {
    pvm::SharedBytes& cut = segs_[whole - 1];
    cut.size -= need;
    out.segs_.push_back(view(cut.data, cut.data.get() + cut.size, need));
  }
  out.segs_.insert(out.segs_.end(),
                   segs_.begin() + static_cast<std::ptrdiff_t>(whole),
                   segs_.end());
  segs_.resize(whole);
  out.processed_.assign(processed_.begin() + static_cast<std::ptrdiff_t>(keep),
                        processed_.end());
  out.recount_flags();
  processed_.resize(keep);
  unprocessed_ -= out.unprocessed_;
  first_unprocessed_ = std::min(first_unprocessed_, keep);
  checksum_.reset();
  return out;
}

void ExemplarSet::append(const ExemplarSet& other) {
  // All of this set processed: the first unprocessed exemplar, if any, is
  // the other set's.
  if (first_unprocessed_ == size())
    first_unprocessed_ += other.first_unprocessed_;
  unprocessed_ += other.unprocessed_;
  // The checksum is a sum over exemplars, so known parts add up.
  if (checksum_ && other.checksum_)
    *checksum_ += *other.checksum_;
  else
    checksum_.reset();
  segs_.insert(segs_.end(), other.segs_.begin(), other.segs_.end());
  processed_.insert(processed_.end(), other.processed_.begin(),
                    other.processed_.end());
}

pvm::SharedBytes ExemplarSet::image(std::size_t first,
                                    std::size_t count) const {
  CPE_EXPECTS(first <= size() && count <= size() - first);
  if (count == 0) return {};
  std::size_t off = first * kBytes;
  const std::size_t len = count * kBytes;
  auto s = segs_.begin();
  while (off >= s->size) off -= (s++)->size;
  if (off + len <= s->size) return view(s->data, s->data.get() + off, len);
  // The range spans segments: concatenate it once.
  const std::shared_ptr<std::byte[]> block = map_block(len);
  for (std::size_t done = 0; done < len; ++s, off = 0) {
    const std::size_t n = std::min(s->size - off, len - done);
    std::memcpy(block.get() + done, s->data.get() + off, n);
    done += n;
  }
  return view(block, block.get(), len);
}

ExemplarSet ExemplarSet::adopt(pvm::SharedBytes image) {
  const std::size_t n = image.size / kBytes;
  return adopt(std::move(image), std::vector<std::uint8_t>(n, 0));
}

ExemplarSet ExemplarSet::adopt(pvm::SharedBytes image,
                               std::vector<std::uint8_t> flags) {
  CPE_EXPECTS(image.size % kBytes == 0);
  CPE_EXPECTS(flags.size() == image.size / kBytes);
  ExemplarSet set;
  if (image.size != 0) set.segs_.push_back(std::move(image));
  set.processed_ = std::move(flags);
  set.recount_flags();
  return set;
}

std::uint64_t ExemplarSet::checksum() const {
  if (checksum_) return *checksum_;
  // Order-insensitive: sum of per-exemplar FNV hashes.
  std::uint64_t sum = 0;
  for (const pvm::SharedBytes& s : segs_) {
    const std::byte* p = s.data.get();
    sum += hash_sum(
        s.size / kBytes,
        [p](std::size_t i, std::size_t d) {
          return load_be(p + i * kBytes + d * 4);
        },
        [p](std::size_t i) { return category_at(p + i * kBytes); });
  }
  checksum_ = sum;
  return sum;
}

}  // namespace cpe::opt
