// Gradient kernels: how slave VPs produce their partial gradients.
//
// Two modes share one interface:
//  * real math — actual back-propagation over the slice; used by the
//    examples and the transparency tests (the trained network must be
//    identical with and without migrations);
//  * modelled — a cheap deterministic pseudo-gradient; used at bench scale
//    (tens of MB of exemplars) where only the *time* matters.  The CPU work
//    charged to the simulation is identical in both modes, so timing results
//    never depend on which kernel runs.
#pragma once

#include <span>

#include "apps/opt/network.hpp"

namespace cpe::opt {

class GradientKernel {
 public:
  explicit GradientKernel(bool real_math, calib::OptWorkload workload = {})
      : real_math_(real_math), workload_(workload) {}

  [[nodiscard]] bool real_math() const noexcept { return real_math_; }
  [[nodiscard]] const calib::OptWorkload& workload() const noexcept {
    return workload_;
  }

  /// Accumulate the partial gradient of `net` over `slice` into `grad` and
  /// return the CPU work (reference-seconds) the caller must charge.  With
  /// `honor_flags`, exemplars already marked processed contribute neither
  /// gradient nor work (the ADM epoch-continuation rule).
  double partial(const Network& net, const ExemplarSet& slice,
                 std::span<float> grad, bool honor_flags = false) const {
    CPE_EXPECTS(grad.size() == Network::weight_count());
    const std::size_t n =
        honor_flags ? slice.unprocessed_count() : slice.size();
    if (real_math_) {
      net.accumulate_gradient(slice, grad, honor_flags);
    } else {
      // Deterministic filler so buffers carry stable, checkable bytes.
      const float h =
          static_cast<float>(net.checksum() % 1000) * 1e-5f + 1e-4f;
      for (std::size_t i = 0; i < grad.size(); ++i)
        grad[i] += h * static_cast<float>(n % 97 + 1) *
                   (1.0f + 0.001f * static_cast<float>(i % 31));
    }
    return static_cast<double>(n) * workload_.grad_seconds_per_exemplar;
  }

  /// One ADM inner-loop step: process up to `max_items` unprocessed
  /// exemplars, marking them processed.  `overhead_factor` is the ADM
  /// adaptivity burden (flag checks, switch dispatch, flag-array upkeep —
  /// §4.3.1) added to the compute time.
  struct ChunkResult {
    std::size_t items = 0;
    double work = 0;

    ChunkResult() = default;
    ChunkResult(std::size_t i, double w) : items(i), work(w) {}
  };
  ChunkResult chunk(const Network& net, ExemplarSet& set,
                    std::span<float> grad, std::size_t max_items,
                    double overhead_factor) const {
    CPE_EXPECTS(grad.size() == Network::weight_count());
    std::size_t n = 0;
    // Everything before the first unprocessed exemplar is processed, so
    // starting there visits what a scan from 0 would, in the same order.
    for (std::size_t i = set.first_unprocessed();
         i < set.size() && n < max_items; ++i) {
      if (set.processed(i)) continue;
      if (real_math_)
        net.accumulate_one(set.features(i), set.category(i), grad);
      set.mark_processed(i);
      ++n;
    }
    if (!real_math_ && n > 0) {
      const float h =
          static_cast<float>(net.checksum() % 1000) * 1e-5f + 1e-4f;
      for (std::size_t i = 0; i < grad.size(); ++i)
        grad[i] += h * static_cast<float>(n % 97 + 1);
    }
    const double work = static_cast<double>(n) *
                        workload_.grad_seconds_per_exemplar *
                        (1.0 + overhead_factor);
    return ChunkResult(n, work);
  }

 private:
  bool real_math_;
  calib::OptWorkload workload_;
};

}  // namespace cpe::opt
