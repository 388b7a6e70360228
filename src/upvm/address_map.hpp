// The ULP virtual-address layout (paper §2.2, Figure 2).
//
// Every ULP of an application is assigned a virtual-address region that is
// unique *across all processes*: if ULP4 occupies region V1 in the process on
// host3, V1 is reserved for ULP4 in every other process too, even where ULP4
// is not resident.  Migration therefore never needs pointer fix-up — the ULP
// lands at the same addresses it left.  The price is that the per-process
// address space is divided among all ULPs, limiting how many can exist
// (§3.2.2: "this puts a limit on the number of ULPs that could be created").
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/assert.hpp"

namespace cpe::upvm {

struct VaRegion {
  std::uintptr_t base = 0;
  std::size_t size = 0;

  [[nodiscard]] std::uintptr_t end() const noexcept { return base + size; }
  [[nodiscard]] bool overlaps(const VaRegion& o) const noexcept {
    return base < o.end() && o.base < end();
  }
};

class AddressSpaceMap {
 public:
  /// `va_budget`: bytes of process address space available for ULP regions
  /// (what remains of a 1990s 32-bit layout after text, libraries and the
  /// UPVM runtime).  `region_size`: bytes reserved per ULP.
  AddressSpaceMap(std::size_t va_budget, std::size_t region_size,
                  std::uintptr_t base = 0x4000'0000)
      : va_budget_(va_budget), region_size_(region_size), base_(base) {
    CPE_EXPECTS(region_size > 0);
    CPE_EXPECTS(va_budget >= region_size);
  }

  /// Maximum number of ULPs this layout supports.
  [[nodiscard]] std::size_t max_ulps() const noexcept {
    return va_budget_ / region_size_;
  }
  [[nodiscard]] std::size_t region_size() const noexcept {
    return region_size_;
  }

  /// Reserve a region; throws when the address space is exhausted.  A region
  /// released by a finished ULP is reused (most recently released first)
  /// before fresh address space is carved, so ULP churn — create/exit cycles
  /// — does not eat through the §3.2.2 budget while the live count is small.
  VaRegion allocate() {
    if (!free_.empty()) {
      VaRegion r = free_.back();
      free_.pop_back();
      ++allocated_;
      regions_.push_back(r);
      return r;
    }
    if (carved_ >= max_ulps())
      throw Error(
          "AddressSpaceMap: virtual address space exhausted: cannot create "
          "ULP " +
          std::to_string(allocated_ + 1) + " with region size " +
          std::to_string(region_size_) + " and budget " +
          std::to_string(va_budget_) +
          " (the §3.2.2 limit; 64-bit address spaces would lift it)");
    VaRegion r{base_ + carved_ * region_size_, region_size_};
    ++carved_;
    ++allocated_;
    regions_.push_back(r);
    return r;
  }

  /// Return a region to the map (ULP teardown).  Throws on a region that is
  /// not currently allocated (including double release).
  void release(const VaRegion& r) {
    for (std::size_t i = 0; i < regions_.size(); ++i) {
      if (regions_[i].base == r.base && regions_[i].size == r.size) {
        regions_.erase(regions_.begin() + static_cast<std::ptrdiff_t>(i));
        free_.push_back(r);
        CPE_ASSERT(allocated_ > 0);
        --allocated_;
        return;
      }
    }
    throw Error("AddressSpaceMap: release of a region that is not allocated");
  }

  /// The i-th *live* region — identical on every process by construction.
  [[nodiscard]] const VaRegion& region_of(std::size_t index) const {
    CPE_EXPECTS(index < regions_.size());
    return regions_[index];
  }

  /// Currently live regions.
  [[nodiscard]] std::size_t allocated() const noexcept { return allocated_; }
  /// High-water mark of distinct regions ever carved from the budget.
  [[nodiscard]] std::size_t carved() const noexcept { return carved_; }

  /// No two allocated regions overlap (DESIGN.md invariant 3).
  [[nodiscard]] bool disjoint() const {
    for (std::size_t i = 0; i < regions_.size(); ++i)
      for (std::size_t j = i + 1; j < regions_.size(); ++j)
        if (regions_[i].overlaps(regions_[j])) return false;
    return true;
  }

  /// Render the layout (the Figure 2 reproduction).
  [[nodiscard]] std::string format() const {
    std::string out = "ULP address regions (unique across all processes):\n";
    for (std::size_t i = 0; i < regions_.size(); ++i) {
      char line[96];
      std::snprintf(line, sizeof line, "  ULP%zu: [%#zx, %#zx)\n", i,
                    static_cast<std::size_t>(regions_[i].base),
                    static_cast<std::size_t>(regions_[i].end()));
      out += line;
    }
    return out;
  }

 private:
  std::size_t va_budget_;
  std::size_t region_size_;
  std::uintptr_t base_;
  std::size_t allocated_ = 0;
  std::size_t carved_ = 0;
  std::vector<VaRegion> regions_;
  std::vector<VaRegion> free_;
};

}  // namespace cpe::upvm
