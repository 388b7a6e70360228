#include "apps/opt/network.hpp"

#include <gtest/gtest.h>

#include "apps/opt/kernel.hpp"

namespace cpe::opt {
namespace {

TEST(Network, WeightCountMatchesLayout) {
  EXPECT_EQ(Network::weight_count(),
            64u * 32 + 32 + 32u * 16 + 16);
  Network net(1);
  EXPECT_EQ(net.weights().size(), Network::weight_count());
}

TEST(Network, ForwardProducesProbabilityDistribution) {
  Network net(1);
  std::vector<float> x(kInputDim, 0.3f);
  std::vector<float> p = net.forward(x);
  ASSERT_EQ(p.size(), static_cast<std::size_t>(kClasses));
  float sum = 0;
  for (float v : p) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(Network, GradientMatchesFiniteDifference) {
  sim::Rng rng(5);
  ExemplarSet set = ExemplarSet::synthesize(3, rng);
  Network net(7);
  std::vector<float> grad(Network::weight_count(), 0.0f);
  net.accumulate_gradient(set, grad);

  // Spot-check several weights against central differences.
  for (std::size_t wi : {0u, 100u, 2000u, 2100u,
                         static_cast<unsigned>(Network::weight_count() - 1)}) {
    const float eps = 1e-3f;
    Network plus = net, minus = net;
    plus.mutable_weights()[wi] += eps;
    minus.mutable_weights()[wi] -= eps;
    const double fd = (plus.loss_on(set) - minus.loss_on(set)) *
                      static_cast<double>(set.size()) /
                      (2.0 * static_cast<double>(eps));
    EXPECT_NEAR(grad[wi], fd, 0.02 + 0.05 * std::abs(fd)) << "weight " << wi;
  }
}

TEST(Network, TrainingReducesLossAndLearns) {
  // End-to-end sanity: conjugate-gradient training on separable synthetic
  // clusters must beat chance by a wide margin.
  sim::Rng rng(11);
  ExemplarSet set = ExemplarSet::synthesize(400, rng);
  Network net(3);
  const double loss0 = net.loss_on(set);
  Network::CgState cg;
  std::vector<float> grad(Network::weight_count());
  for (int iter = 0; iter < 40; ++iter) {
    std::fill(grad.begin(), grad.end(), 0.0f);
    net.accumulate_gradient(set, grad);
    for (float& g : grad) g /= static_cast<float>(set.size());
    net.apply_cg_step(grad, cg, 0.5f);
  }
  EXPECT_LT(net.loss_on(set), loss0 * 0.5);
  EXPECT_GT(net.accuracy_on(set), 0.5);  // chance is 1/16
}

TEST(Network, ChecksumDetectsWeightChanges) {
  Network a(1), b(1), c(2);
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_NE(a.checksum(), c.checksum());
  a.mutable_weights()[0] += 1.0f;
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(Network, RememberedChecksumFollowsEveryEdit) {
  // A network adopted from the same weights has never hashed them.
  const auto fresh = [](const Network& n) {
    return Network{std::vector<float>(n.weights().begin(), n.weights().end())}
        .checksum();
  };
  Network net(4);
  EXPECT_EQ(net.checksum(), fresh(net));
  Network::CgState cg;
  const std::vector<float> grad(Network::weight_count(), 0.01f);
  std::uint64_t before = net.checksum();
  net.apply_cg_step(grad, cg);
  EXPECT_NE(net.checksum(), before);
  EXPECT_EQ(net.checksum(), fresh(net));
  before = net.checksum();
  net.mutable_weights()[5] += 0.5f;
  EXPECT_NE(net.checksum(), before);
  EXPECT_EQ(net.checksum(), fresh(net));
}

TEST(Network, AdoptedWeightsRoundTrip) {
  Network a(9);
  Network b{std::vector<float>(a.weights().begin(), a.weights().end())};
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(Kernel, RealAndModeledChargeSameWork) {
  sim::Rng rng(3);
  ExemplarSet set = ExemplarSet::synthesize(100, rng);
  Network net(1);
  std::vector<float> g1(Network::weight_count(), 0.0f);
  std::vector<float> g2(Network::weight_count(), 0.0f);
  GradientKernel real(true), modeled(false);
  const double w1 = real.partial(net, set, g1);
  const double w2 = modeled.partial(net, set, g2);
  EXPECT_DOUBLE_EQ(w1, w2);
  EXPECT_GT(w1, 0.0);
}

TEST(Kernel, HonorFlagsSkipsProcessed) {
  sim::Rng rng(3);
  ExemplarSet set = ExemplarSet::synthesize(10, rng);
  for (std::size_t i = 0; i < 4; ++i) set.mark_processed(i);
  Network net(1);
  std::vector<float> g(Network::weight_count(), 0.0f);
  GradientKernel k(false);
  const double w = k.partial(net, set, g, /*honor_flags=*/true);
  EXPECT_DOUBLE_EQ(w, 6 * k.workload().grad_seconds_per_exemplar);
}

TEST(Kernel, ChunkProcessesAtMostMaxAndMarks) {
  sim::Rng rng(3);
  ExemplarSet set = ExemplarSet::synthesize(10, rng);
  Network net(1);
  std::vector<float> g(Network::weight_count(), 0.0f);
  GradientKernel k(true);
  auto r1 = k.chunk(net, set, g, 4, 0.0);
  EXPECT_EQ(r1.items, 4u);
  EXPECT_EQ(set.unprocessed_count(), 6u);
  auto r2 = k.chunk(net, set, g, 100, 0.0);
  EXPECT_EQ(r2.items, 6u);
  EXPECT_EQ(set.unprocessed_count(), 0u);
  auto r3 = k.chunk(net, set, g, 100, 0.0);
  EXPECT_EQ(r3.items, 0u);
  EXPECT_DOUBLE_EQ(r3.work, 0.0);
}

TEST(Kernel, ChunkOverheadFactorInflatesWork) {
  sim::Rng rng(3);
  ExemplarSet a = ExemplarSet::synthesize(10, rng);
  ExemplarSet b = ExemplarSet::adopt(a.image());
  Network net(1);
  std::vector<float> g(Network::weight_count(), 0.0f);
  GradientKernel k(false);
  const double plain = k.chunk(net, a, g, 10, 0.0).work;
  const double adm = k.chunk(net, b, g, 10, 0.225).work;
  EXPECT_NEAR(adm / plain, 1.225, 1e-9);
}

TEST(Kernel, ChunkedEqualsOneShotGradient) {
  // Chunked ADM processing must produce the same gradient as one pass.
  sim::Rng rng(13);
  ExemplarSet a = ExemplarSet::synthesize(37, rng);
  ExemplarSet b = ExemplarSet::adopt(a.image());
  Network net(2);
  std::vector<float> g1(Network::weight_count(), 0.0f);
  std::vector<float> g2(Network::weight_count(), 0.0f);
  GradientKernel k(true);
  (void)k.partial(net, a, g1);
  while (b.unprocessed_count() > 0) (void)k.chunk(net, b, g2, 5, 0.0);
  for (std::size_t i = 0; i < g1.size(); ++i)
    EXPECT_NEAR(g1[i], g2[i], 1e-4f);
}

}  // namespace
}  // namespace cpe::opt
