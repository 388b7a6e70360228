// The Opt neural network: a 64-32-16 MLP trained by back-propagation with
// conjugate-gradient descent (paper §4.0: "an initial neural-net, which is
// simply a (large) matrix of floating point numbers, is established and
// applied to the exemplars so that a gradient is found ... that gradient is
// then used to modify the neural-net").
//
// The math is real: forward pass (tanh hidden, softmax output), cross-entropy
// gradient via back-propagation, and Fletcher-Reeves conjugate-gradient
// updates.  Small-scale tests train to convergence; bench-scale runs swap in
// the modelled kernel for gradient values but keep this class for the
// master's combine/apply step.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "apps/opt/exemplars.hpp"

namespace cpe::opt {

inline constexpr int kHidden = 32;

class Network {
 public:
  /// Weight count: W1 (64x32) + b1 (32) + W2 (32x16) + b2 (16).
  static constexpr std::size_t kWeights =
      static_cast<std::size_t>(kInputDim) * kHidden + kHidden +
      static_cast<std::size_t>(kHidden) * kClasses + kClasses;

  /// Deterministic small random initialization.
  explicit Network(std::uint64_t seed = 1);
  /// Adopt existing weights (a net received over the wire).
  explicit Network(std::vector<float> weights);

  [[nodiscard]] std::span<const float> weights() const noexcept {
    return weights_;
  }
  /// For edits: forgets the memoized checksum(), so finish editing through
  /// this reference before the next checksum() call.
  [[nodiscard]] std::vector<float>& mutable_weights() noexcept {
    checksum_.reset();
    return weights_;
  }
  [[nodiscard]] static constexpr std::size_t weight_count() noexcept {
    return kWeights;
  }
  [[nodiscard]] static std::size_t bytes() noexcept {
    return kWeights * sizeof(float);
  }

  /// Class scores (softmax probabilities) for one exemplar.
  [[nodiscard]] std::vector<float> forward(std::span<const float> x) const;

  /// Accumulate the cross-entropy gradient over `set` into `grad`
  /// (grad += dE/dw summed over exemplars).  Returns the summed loss.
  /// Only exemplars with `processed()==false` contribute when
  /// `honor_flags` is set (the ADM inner loop); flags are not modified.
  double accumulate_gradient(const ExemplarSet& set, std::span<float> grad,
                             bool honor_flags = false) const;

  /// Gradient contribution of a single exemplar (the ADM chunked inner
  /// loop).  Returns the exemplar's loss.
  double accumulate_one(std::span<const float> x, int label,
                        std::span<float> grad) const;

  /// One conjugate-gradient step: direction d = -g + beta * d_prev with
  /// Fletcher-Reeves beta, fixed learning rate.  Pass the same CgState
  /// across iterations.
  struct CgState {
    std::vector<float> prev_grad;
    std::vector<float> direction;
  };
  void apply_cg_step(std::span<const float> grad, CgState& state,
                     float learning_rate = 0.05f);

  /// Mean cross-entropy over a set (diagnostics/tests).
  [[nodiscard]] double loss_on(const ExemplarSet& set) const;
  /// Fraction of exemplars classified correctly.
  [[nodiscard]] double accuracy_on(const ExemplarSet& set) const;

  /// Content hash of the weights (transparency invariant: migrated and
  /// non-migrated runs must train identical nets).  Hashed once and
  /// remembered until apply_cg_step() or mutable_weights().
  [[nodiscard]] std::uint64_t checksum() const;

 private:
  std::vector<float> weights_;
  mutable std::optional<std::uint64_t> checksum_;
};

}  // namespace cpe::opt
