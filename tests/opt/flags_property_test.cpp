// Property test for ExemplarSet's processed-flag bookkeeping (ADM §4.3.1).
// The set keeps an unprocessed count and a first-unprocessed cursor beside
// its flag array; after every mutation both must agree with the array, and
// GradientKernel::chunk, which starts at the cursor, must mark the same
// exemplars in the same order as the scan from index 0 it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

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
        t.fast.load_flags(flags);
        t.ref.load_flags(flags);
        break;
      }
      case 6:  // from_wire(span): copies the image, flags clear
        t.fast = ExemplarSet::from_wire(t.fast.to_wire());
        t.ref = ExemplarSet::from_wire(t.ref.to_wire());
        break;
      case 7: {  // from_wire(Wire&&): adopts the image, flags clear
        ExemplarSet::Wire wf(t.fast.to_wire().begin(), t.fast.to_wire().end());
        ExemplarSet::Wire wr(t.ref.to_wire().begin(), t.ref.to_wire().end());
        t.fast = ExemplarSet::from_wire(std::move(wf));
        t.ref = ExemplarSet::from_wire(std::move(wr));
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

  // The batch crosses the wire the way unpack_move rebuilds it: features
  // adopted from the unpacked image, then the shipped flags.
  const auto ship = [](const ExemplarSet& batch) {
    ExemplarSet::Wire wire(batch.to_wire().begin(), batch.to_wire().end());
    ExemplarSet arrived = ExemplarSet::from_wire(std::move(wire));
    arrived.load_flags(batch.flags_image());
    return arrived;
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

}  // namespace
}  // namespace cpe::opt
