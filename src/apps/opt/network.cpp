#include "apps/opt/network.hpp"

#include <cmath>
#include <cstring>

#include "sim/random.hpp"

namespace cpe::opt {

namespace {
// Weight layout offsets.
constexpr std::size_t kW1 = 0;
constexpr std::size_t kB1 = kW1 + static_cast<std::size_t>(kInputDim) * kHidden;
constexpr std::size_t kW2 = kB1 + kHidden;
constexpr std::size_t kB2 = kW2 + static_cast<std::size_t>(kHidden) * kClasses;

struct Activations {
  float hidden[kHidden];
  float out[kClasses];
};

void forward_into(std::span<const float> w, std::span<const float> x,
                  Activations& a) {
  for (int h = 0; h < kHidden; ++h) {
    float acc = w[kB1 + static_cast<std::size_t>(h)];
    const float* row = w.data() + kW1 + static_cast<std::size_t>(h) * kInputDim;
    for (int d = 0; d < kInputDim; ++d) acc += row[d] * x[static_cast<std::size_t>(d)];
    a.hidden[h] = std::tanh(acc);
  }
  float max_z = -1e30f;
  float z[kClasses];
  for (int c = 0; c < kClasses; ++c) {
    float acc = w[kB2 + static_cast<std::size_t>(c)];
    const float* row = w.data() + kW2 + static_cast<std::size_t>(c) * kHidden;
    for (int h = 0; h < kHidden; ++h) acc += row[h] * a.hidden[h];
    z[c] = acc;
    max_z = std::max(max_z, acc);
  }
  float sum = 0;
  for (int c = 0; c < kClasses; ++c) {
    a.out[c] = std::exp(z[c] - max_z);
    sum += a.out[c];
  }
  for (int c = 0; c < kClasses; ++c) a.out[c] /= sum;
}
}  // namespace

Network::Network(std::uint64_t seed) : weights_(kWeights) {
  sim::Rng rng(seed);
  for (float& w : weights_)
    w = static_cast<float>(rng.normal(0.0, 0.1));
}

Network::Network(std::vector<float> weights) : weights_(std::move(weights)) {
  CPE_EXPECTS(weights_.size() == kWeights);
}

std::vector<float> Network::forward(std::span<const float> x) const {
  CPE_EXPECTS(x.size() == static_cast<std::size_t>(kInputDim));
  Activations a;
  forward_into(weights_, x, a);
  return std::vector<float>(a.out, a.out + kClasses);
}

double Network::accumulate_one(std::span<const float> x, int label,
                               std::span<float> grad) const {
  CPE_EXPECTS(grad.size() == kWeights);
  const std::span<const float> w = weights_;
  Activations a;
  forward_into(w, x, a);
  const double loss = -std::log(std::max(a.out[label], 1e-12f));

  // Output layer: dz[c] = p[c] - 1{c==label}.
  float dz[kClasses];
  for (int c = 0; c < kClasses; ++c)
    dz[c] = a.out[c] - (c == label ? 1.0f : 0.0f);
  // Hidden layer back-prop.
  float dh[kHidden] = {};
  for (int c = 0; c < kClasses; ++c) {
    const std::size_t row = kW2 + static_cast<std::size_t>(c) * kHidden;
    for (int h = 0; h < kHidden; ++h) {
      grad[row + static_cast<std::size_t>(h)] += dz[c] * a.hidden[h];
      dh[h] += dz[c] * w[row + static_cast<std::size_t>(h)];
    }
    grad[kB2 + static_cast<std::size_t>(c)] += dz[c];
  }
  for (int h = 0; h < kHidden; ++h) {
    const float dt = dh[h] * (1.0f - a.hidden[h] * a.hidden[h]);
    const std::size_t row = kW1 + static_cast<std::size_t>(h) * kInputDim;
    for (int d = 0; d < kInputDim; ++d)
      grad[row + static_cast<std::size_t>(d)] +=
          dt * x[static_cast<std::size_t>(d)];
    grad[kB1 + static_cast<std::size_t>(h)] += dt;
  }
  return loss;
}

double Network::accumulate_gradient(const ExemplarSet& set,
                                    std::span<float> grad,
                                    bool honor_flags) const {
  CPE_EXPECTS(grad.size() == kWeights);
  double loss = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (honor_flags && set.processed(i)) continue;
    loss += accumulate_one(set.features(i), set.category(i), grad);
  }
  return loss;
}

void Network::apply_cg_step(std::span<const float> grad, CgState& state,
                            float learning_rate) {
  CPE_EXPECTS(grad.size() == kWeights);
  if (state.direction.empty()) {
    state.direction.assign(grad.begin(), grad.end());
    for (float& d : state.direction) d = -d;
  } else {
    // Fletcher-Reeves: beta = <g,g> / <g_prev,g_prev>.
    double gg = 0, pp = 0;
    for (std::size_t i = 0; i < kWeights; ++i) {
      const double g = grad[i];
      const double pg = state.prev_grad[i];
      gg += g * g;
      pp += pg * pg;
    }
    const float beta = pp > 0 ? static_cast<float>(gg / pp) : 0.0f;
    for (std::size_t i = 0; i < kWeights; ++i)
      state.direction[i] = -grad[i] + beta * state.direction[i];
  }
  state.prev_grad.assign(grad.begin(), grad.end());
  for (std::size_t i = 0; i < kWeights; ++i)
    weights_[i] += learning_rate * state.direction[i];
  checksum_.reset();
}

double Network::loss_on(const ExemplarSet& set) const {
  if (set.empty()) return 0;
  double loss = 0;
  Activations a;
  for (std::size_t i = 0; i < set.size(); ++i) {
    forward_into(weights_, set.features(i), a);
    loss -= static_cast<double>(
        std::log(std::max(a.out[set.category(i)], 1e-12f)));
  }
  return loss / static_cast<double>(set.size());
}

double Network::accuracy_on(const ExemplarSet& set) const {
  if (set.empty()) return 0;
  std::size_t correct = 0;
  Activations a;
  for (std::size_t i = 0; i < set.size(); ++i) {
    forward_into(weights_, set.features(i), a);
    int best = 0;
    for (int c = 1; c < kClasses; ++c)
      if (a.out[c] > a.out[best]) best = c;
    if (best == set.category(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(set.size());
}

std::uint64_t Network::checksum() const {
  if (checksum_) return *checksum_;
  std::uint64_t h = 1469598103934665603ull;
  for (float f : weights_) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    h ^= bits;
    h *= 1099511628211ull;
  }
  checksum_ = h;
  return h;
}

}  // namespace cpe::opt
