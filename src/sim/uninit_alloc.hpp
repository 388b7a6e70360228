// An allocator whose value-less construct() default-initializes.
//
// std::vector<T>(n) and resize(n) value-initialize what they add, which for
// a trivial T is a memset.  Where the new elements are overwritten at once
// (a pvm::Buffer encoding into its arena), that memset is wasted: with this
// allocator the same calls leave the storage uninitialized.  Construction
// with arguments (push_back, insert, assign) is unchanged.
#pragma once

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace cpe::sim {

template <class T>
struct UninitAlloc : std::allocator<T> {
  using value_type = T;
  template <class U>
  struct rebind {
    using other = UninitAlloc<U>;
  };
  UninitAlloc() = default;
  template <class U>
  UninitAlloc(const UninitAlloc<U>&) noexcept {}
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A vector whose sized constructor and resize() leave new elements
/// default-initialized.
template <class T>
using UninitVector = std::vector<T, UninitAlloc<T>>;

}  // namespace cpe::sim
