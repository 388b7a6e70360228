// Helpers of the repository benchmark that carry no simulator state:
// nearest-rank percentiles with censoring, the determinism digest, the
// paper reference values, and the host-time span recorder of the traced run.
// selftest.cpp pins their arithmetic.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host seconds on a monotonic clock.
inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One percentile read off raw samples, with the counts it rests on.
struct Percentile {
  double value = 0;
  std::size_t n = 0;         ///< samples ranked, censored ones included
  std::size_t censored = 0;  ///< samples that sit at the censoring bound
};

/// Nearest-rank percentile: the ceil(q * n)-th smallest of `samples` plus
/// `censored` copies of `bound` (a timed-out request counts at its timeout).
/// q is in (0, 1]; an empty input reads 0.
inline Percentile nearest_rank(std::vector<double> samples,
                               std::size_t censored, double bound, double q) {
  samples.insert(samples.end(), censored, bound);
  Percentile p;
  p.n = samples.size();
  p.censored = censored;
  if (samples.empty()) return p;
  const double exact_rank = std::ceil(q * static_cast<double>(p.n) - 1e-9);
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(exact_rank, 1.0)), 1, p.n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  return p;
}

/// FNV-1a over the virtual-time outcomes of a run.  Doubles hash by their
/// bit pattern, so two runs agree only when every value is bit-identical.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The paper values paper_reclaim is compared against (EXPERIMENTS.md):
/// Table 2 obtrusiveness and migration at six sizes, Table 4's two values,
/// Table 6 at the same six sizes.  Measured vectors use the same order.
inline constexpr double kPaperMb[] = {0.6, 4.2, 5.8, 9.8, 13.5, 20.8};
inline constexpr double kTable2Obtrusive[] = {1.17, 2.93, 3.90,
                                              5.92, 8.42, 12.52};
inline constexpr double kTable2Migration[] = {1.39, 3.15, 4.10,
                                              6.18, 9.25, 13.10};
inline constexpr double kTable4[] = {1.67, 6.88};  ///< obtrusive, migration
inline constexpr double kTable6[] = {1.75, 4.42, 5.46, 9.96, 12.41, 21.69};

/// The 20 reference values in measured-vector order.
inline std::vector<double> paper_reference() {
  std::vector<double> ref;
  for (double v : kTable2Obtrusive) ref.push_back(v);
  for (double v : kTable2Migration) ref.push_back(v);
  for (double v : kTable4) ref.push_back(v);
  for (double v : kTable6) ref.push_back(v);
  return ref;
}

/// Mean |measured - paper| / paper, in percent.  -1 on a size mismatch.
inline double paper_err_pct(const std::vector<double>& measured,
                            const std::vector<double>& paper) {
  if (measured.size() != paper.size() || paper.empty()) return -1;
  double sum = 0;
  for (std::size_t i = 0; i < paper.size(); ++i)
    sum += std::fabs(measured[i] - paper[i]) / paper[i];
  return 100.0 * sum / static_cast<double>(paper.size());
}

/// Host-time spans the traced run records around its own calls into the
/// simulator's layers.  Kept in memory; written out when the run ends.
/// Disabled, every call is a no-op.
class HostTrace {
 public:
  explicit HostTrace(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Open a span under the innermost open one; returns its handle.
  std::size_t begin(std::string_view name, std::string_view layer) {
    if (!on_) return 0;
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    s.t0 = host_now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  /// Close the span `h`; returns its duration in host seconds.
  double end(std::size_t h) {
    if (!on_) return 0;
    spans_[h].t1 = host_now();
    if (!open_.empty() && open_.back() == h) open_.pop_back();
    return spans_[h].t1 - spans_[h].t0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// One JSON object per span: name, layer, parent index, host start and
  /// end relative to the first span.
  void write_jsonl(std::ostream& os) const {
    const double base = spans_.empty() ? 0 : spans_.front().t0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
         << s.name << "\",\"layer\":\"" << s.layer
         << "\",\"start_s\":" << (s.t0 - base)
         << ",\"end_s\":" << (s.t1 - base) << "}\n";
    }
  }

 private:
  struct Span {
    std::string name;
    std::string layer;
    long parent = -1;
    double t0 = 0;
    double t1 = 0;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
