// Property test for ExemplarSet's processed-flag bookkeeping (ADM §4.3.1).
// The set keeps an unprocessed count and a first-unprocessed cursor beside
// its flag array; after every mutation both must agree with the array, and
// GradientKernel::chunk, which starts at the cursor, must mark the same
// exemplars in the same order as the scan from index 0 it replaced.
//
// Its segmented twin checks the storage under that bookkeeping: sets built
// from many blocks by take_back, append and adopt must read, hash and flag
// exactly like a contiguous reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "apps/opt/adm_opt.hpp"
#include "apps/opt/kernel.hpp"

namespace cpe::opt {
namespace {

// GradientKernel::chunk before the cursor, real-math branch: a scan from
// index 0 that skips processed exemplars.
GradientKernel::ChunkResult reference_chunk(const GradientKernel& kernel,
                                            const Network& net,
                                            ExemplarSet& set,
                                            std::span<float> grad,
                                            std::size_t max_items,
                                            double overhead_factor) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < set.size() && n < max_items; ++i) {
    if (set.processed(i)) continue;
    net.accumulate_one(set.features(i), set.category(i), grad);
    set.mark_processed(i);
    ++n;
  }
  const double work = static_cast<double>(n) *
                      kernel.workload().grad_seconds_per_exemplar *
                      (1.0 + overhead_factor);
  return {n, work};
}

void expect_bookkeeping(const ExemplarSet& s) {
  const std::vector<std::uint8_t>& f = s.flags_image();
  ASSERT_EQ(f.size(), s.size());
  EXPECT_EQ(s.unprocessed_count(),
            static_cast<std::size_t>(std::count(f.begin(), f.end(), 0)));
  EXPECT_EQ(s.first_unprocessed(),
            static_cast<std::size_t>(std::find(f.begin(), f.end(), 0) -
                                     f.begin()));
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The same sequence of operations on two copies of one set: `fast` chunks
/// with GradientKernel::chunk, `ref` with the reference scan.
struct Twin {
  ExemplarSet fast, ref;
  std::vector<float> g_fast = std::vector<float>(Network::weight_count());
  std::vector<float> g_ref = std::vector<float>(Network::weight_count());

  explicit Twin(const ExemplarSet& s) : fast(s), ref(s) {}

  void chunk(const GradientKernel& kernel, const Network& net,
             std::size_t max_items) {
    const GradientKernel::ChunkResult got =
        kernel.chunk(net, fast, g_fast, max_items, 0.225);
    const GradientKernel::ChunkResult want =
        reference_chunk(kernel, net, ref, g_ref, max_items, 0.225);
    EXPECT_EQ(got.items, want.items);
    EXPECT_EQ(got.work, want.work);
    EXPECT_TRUE(same_bits(g_fast, g_ref));
  }

  void check() const {
    expect_bookkeeping(fast);
    expect_bookkeeping(ref);
    EXPECT_EQ(fast.flags_image(), ref.flags_image());
  }
};

std::vector<std::uint8_t> random_flags(sim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> flags(n);
  for (std::uint8_t& f : flags) f = rng.chance(0.5) ? 1 : 0;
  return flags;
}

class FlagBookkeeping : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlagBookkeeping, MatchesTheFlagArrayAndTheScanFromZero) {
  sim::Rng rng(GetParam());
  const Network net(1);
  const GradientKernel kernel(/*real_math=*/true);
  Twin t(ExemplarSet::synthesize(1 + rng.below(300), rng));
  std::vector<ExemplarSet> spare;  // detached sets, appended later
  for (int step = 0; step < 300; ++step) {
    const std::size_t n = t.fast.size();
    switch (rng.below(10)) {
      case 0: {  // mark, sometimes the same index twice
        if (n == 0) break;
        const std::size_t i = rng.below(n);
        const int times = rng.chance(0.3) ? 2 : 1;
        for (int k = 0; k < times; ++k) {
          t.fast.mark_processed(i);
          t.ref.mark_processed(i);
        }
        break;
      }
      case 1:
        t.fast.reset_processed();
        t.ref.reset_processed();
        break;
      case 2: {
        const std::size_t count = rng.below(n + 1);
        ExemplarSet tail = t.fast.take_back(count);
        const ExemplarSet ref_tail = t.ref.take_back(count);
        expect_bookkeeping(tail);
        EXPECT_EQ(tail.flags_image(), ref_tail.flags_image());
        spare.push_back(std::move(tail));
        expect_bookkeeping(tail);  // moved-from: empty
        EXPECT_TRUE(tail.empty());
        break;
      }
      case 3: {
        ExemplarSet other;
        if (!spare.empty() && rng.chance(0.7)) {
          other = std::move(spare.back());
          spare.pop_back();
        } else {
          other = ExemplarSet::synthesize(rng.below(40), rng);
          for (std::size_t i = 0; i < other.size(); ++i)
            if (rng.chance(0.4)) other.mark_processed(i);
        }
        expect_bookkeeping(other);
        t.fast.append(other);
        t.ref.append(other);
        break;
      }
      case 4: {  // take 1-4 shares off the back, carry on with one of them
        std::vector<std::size_t> shares(1 + rng.below(4));
        std::size_t left = n;
        for (std::size_t k = 0; k + 1 < shares.size(); ++k) {
          shares[k] = rng.below(left + 1);
          left -= shares[k];
        }
        shares.back() = left;
        std::vector<ExemplarSet> fast_parts(shares.size());
        std::vector<ExemplarSet> ref_parts(shares.size());
        for (std::size_t k = shares.size(); k-- > 0;) {
          fast_parts[k] = t.fast.take_back(shares[k]);
          ref_parts[k] = t.ref.take_back(shares[k]);
        }
        expect_bookkeeping(t.fast);
        EXPECT_TRUE(t.fast.empty());
        const std::size_t keep = rng.below(shares.size());
        for (std::size_t k = 0; k < shares.size(); ++k) {
          expect_bookkeeping(fast_parts[k]);
          EXPECT_EQ(fast_parts[k].flags_image(), ref_parts[k].flags_image());
          if (k != keep) spare.push_back(std::move(fast_parts[k]));
        }
        t.fast = std::move(fast_parts[keep]);
        t.ref = std::move(ref_parts[keep]);
        expect_bookkeeping(fast_parts[keep]);  // moved-from: empty
        EXPECT_TRUE(fast_parts[keep].empty());
        break;
      }
      case 5: {
        const std::vector<std::uint8_t> flags = random_flags(rng, n);
        t.fast = ExemplarSet::adopt(t.fast.image(), flags);
        t.ref = ExemplarSet::adopt(t.ref.image(), flags);
        break;
      }
      case 6:  // adopt(image()): shares the image, flags clear
        t.fast = ExemplarSet::adopt(t.fast.image());
        t.ref = ExemplarSet::adopt(t.ref.image());
        break;
      case 7: {  // adopt the view a message unpacks: flags clear
        pvm::Buffer bf, br;
        bf.pk_float_image(t.fast.image());
        br.pk_float_image(t.ref.image());
        t.fast = ExemplarSet::adopt(bf.upk_float_image());
        t.ref = ExemplarSet::adopt(br.upk_float_image());
        break;
      }
      default:
        t.chunk(kernel, net, 1 + rng.below(600));
        break;
    }
    t.check();
    EXPECT_EQ(t.fast.checksum(), t.ref.checksum());
    if (HasFailure()) FAIL() << "seed " << GetParam() << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlagBookkeeping,
                         ::testing::Range<std::uint64_t>(1, 17));

// ADM's redistribution pattern (AdmOpt::do_moves): a slave chunks, ships a
// batch from its back with the batch's flags, the receiver integrates it,
// and both chunk again.
TEST(AdmFlagBookkeeping, ChunkMoveAppendChunk) {
  sim::Rng rng(77);
  const Network net(2);
  const GradientKernel kernel(/*real_math=*/true);
  Twin sender(ExemplarSet::synthesize(500, rng));
  Twin receiver(ExemplarSet::synthesize(300, rng));

  sender.chunk(kernel, net, 300);
  receiver.chunk(kernel, net, 120);
  sender.check();
  receiver.check();

  // The batch crosses the wire as a kTagMove body: the unpacked image is
  // adopted with the shipped flags.
  const auto ship = [](const ExemplarSet& batch) {
    pvm::Buffer b;
    pack_move(b, batch);
    return unpack_move(b);
  };
  const ExemplarSet fast_batch = ship(sender.fast.take_back(250));
  const ExemplarSet ref_batch = ship(sender.ref.take_back(250));
  EXPECT_EQ(fast_batch.unprocessed_count(), 200u);  // 250..299 were done
  EXPECT_EQ(fast_batch.first_unprocessed(), 50u);
  receiver.fast.append(fast_batch);
  receiver.ref.append(ref_batch);
  sender.check();
  receiver.check();
  EXPECT_EQ(sender.fast.unprocessed_count(), 0u);
  EXPECT_EQ(receiver.fast.first_unprocessed(), 120u);

  receiver.chunk(kernel, net, 600);
  receiver.check();
  EXPECT_EQ(receiver.fast.unprocessed_count(), 0u);
  EXPECT_EQ(receiver.fast.first_unprocessed(), receiver.fast.size());
  sender.chunk(kernel, net, 600);
  sender.check();
}

/// The contiguous reference for a segmented set: decoded exemplars and
/// flags in one array each.
struct Contiguous {
  std::vector<ExemplarSet::Features> features;
  std::vector<int> category;
  std::vector<std::uint8_t> flags;

  static Contiguous of(const ExemplarSet& s) {
    Contiguous c;
    for (std::size_t i = 0; i < s.size(); ++i) {
      c.features.push_back(s.features(i));
      c.category.push_back(s.category(i));
    }
    c.flags = s.flags_image();
    return c;
  }
  [[nodiscard]] std::size_t size() const { return flags.size(); }
  [[nodiscard]] Contiguous take_back(std::size_t count) {
    const auto keep = static_cast<std::ptrdiff_t>(size() - count);
    Contiguous out;
    out.features.assign(features.begin() + keep, features.end());
    out.category.assign(category.begin() + keep, category.end());
    out.flags.assign(flags.begin() + keep, flags.end());
    features.resize(static_cast<std::size_t>(keep));
    category.resize(static_cast<std::size_t>(keep));
    flags.resize(static_cast<std::size_t>(keep));
    return out;
  }
  void append(const Contiguous& o) {
    features.insert(features.end(), o.features.begin(), o.features.end());
    category.insert(category.end(), o.category.begin(), o.category.end());
    flags.insert(flags.end(), o.flags.begin(), o.flags.end());
  }
  [[nodiscard]] Contiguous range(std::size_t first, std::size_t count) const {
    const auto a = static_cast<std::ptrdiff_t>(first);
    const auto b = static_cast<std::ptrdiff_t>(first + count);
    Contiguous out;
    out.features.assign(features.begin() + a, features.begin() + b);
    out.category.assign(category.begin() + a, category.begin() + b);
    out.flags.assign(count, 0);
    return out;
  }
  /// checksum()'s definition, one exemplar at a time.
  [[nodiscard]] std::uint64_t checksum() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      std::uint64_t h = 1469598103934665603ull;
      for (const float f : features[i])
        h = (h ^ std::bit_cast<std::uint32_t>(f)) * 1099511628211ull;
      sum += (h ^ static_cast<std::uint32_t>(category[i])) * 1099511628211ull;
    }
    return sum;
  }
};

void expect_matches(const ExemplarSet& s, const Contiguous& c) {
  ASSERT_EQ(s.size(), c.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const ExemplarSet::Features f = s.features(i);
    EXPECT_EQ(std::memcmp(f.data(), c.features[i].data(), sizeof f), 0)
        << "exemplar " << i;
    EXPECT_EQ(s.category(i), c.category[i]) << "exemplar " << i;
  }
  EXPECT_EQ(s.flags_image(), c.flags);
  expect_bookkeeping(s);
  // Both the remembered checksum and one recomputed from the bytes.
  EXPECT_EQ(s.checksum(), c.checksum());
  EXPECT_EQ(ExemplarSet::adopt(s.image()).checksum(), c.checksum());
}

class SegmentedSets : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SegmentedSets, MatchAContiguousReference) {
  sim::Rng rng(GetParam());
  // A fresh set with some flags set, and its reference.
  const auto fresh = [&rng] {
    ExemplarSet s = ExemplarSet::synthesize(rng.below(60), rng);
    for (std::size_t i = 0; i < s.size(); ++i)
      if (rng.chance(0.3)) s.mark_processed(i);
    return std::pair(s, Contiguous::of(s));
  };
  auto [set, ref] = fresh();
  std::vector<std::pair<ExemplarSet, Contiguous>> spare;
  for (int step = 0; step < 200; ++step) {
    const std::size_t n = set.size();
    switch (rng.below(6)) {
      case 0: {  // take a batch off the back, keep it for later
        const std::size_t count = rng.below(n + 1);
        ExemplarSet tail = set.take_back(count);
        Contiguous ref_tail = ref.take_back(count);
        expect_matches(tail, ref_tail);
        spare.emplace_back(std::move(tail), std::move(ref_tail));
        break;
      }
      case 1: {  // append a kept batch (a piece of some block) or a fresh set
        std::pair<ExemplarSet, Contiguous> other;
        if (!spare.empty() && rng.chance(0.7)) {
          other = std::move(spare.back());
          spare.pop_back();
        } else {
          other = fresh();
        }
        set.append(other.first);
        ref.append(other.second);
        break;
      }
      case 2:  // adopt the image, through a message (flags clear) or with
               // the set's flags
        if (rng.chance(0.5)) {
          pvm::Buffer b;
          b.pk_float_image(set.image());
          set = ExemplarSet::adopt(b.upk_float_image());
          std::fill(ref.flags.begin(), ref.flags.end(), std::uint8_t{0});
        } else {
          set = ExemplarSet::adopt(set.image(), set.flags_image());
        }
        break;
      case 3: {  // adopt a random range's image, which may span segments
        const std::size_t first = rng.below(n + 1);
        const std::size_t count = rng.below(n - first + 1);
        const ExemplarSet part = ExemplarSet::adopt(set.image(first, count));
        expect_matches(part, ref.range(first, count));
        break;
      }
      case 4: {  // a kTagMove round trip of a batch, flags included
        const std::size_t count = rng.below(n + 1);
        ExemplarSet tail = set.take_back(count);
        Contiguous ref_tail = ref.take_back(count);
        pvm::Buffer b;
        pack_move(b, tail);
        spare.emplace_back(unpack_move(b), std::move(ref_tail));
        break;
      }
      default: {  // flags
        if (n == 0) break;
        const std::size_t i = rng.below(n);
        set.mark_processed(i);
        ref.flags[i] = 1;
        break;
      }
    }
    expect_matches(set, ref);
    if (HasFailure()) FAIL() << "seed " << GetParam() << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentedSets,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace cpe::opt
