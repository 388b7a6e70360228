// Opt's exemplars are not copied on their way to a slave (DESIGN.md §2):
// the master packs a share by reference to its synthesized image, and the
// slave adopts the unpacked view, so receiving a multi-MB share or an ADM
// move allocates only the flag array and a few words.  Each VM test runs
// the send and receive calls the Opt programs make, on the paper's worknet,
// and bounds what the receive path allocates with a counting allocator.
// The synthesized image itself is a mapped block, outside the allocator
// (DESIGN.md §13.3).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/opt/adm_opt.hpp"
#include "support/pvm_fixture.hpp"

// -- Global allocation counter ------------------------------------------------
// Replaces the global allocator for the whole test binary so a test can
// bound what a code path allocates.  Counting only; semantics unchanged.
namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) noexcept {
  g_alloc_bytes += n;
  return std::malloc(n ? n : 1);
}
void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
// The nothrow forms must be replaced too: memory they return is freed with
// plain delete, which here is free().
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cpe::opt {
namespace {

struct ReceiveAllocVm : cpe::test::WorknetFixture {};

constexpr std::uint64_t kReceiveBudget = 64 * 1024;

TEST(SynthesizeAlloc, TwentyMegabyteImageBypassesOperatorNew) {
  sim::Rng rng(3);
  const std::uint64_t before = g_alloc_bytes.load();
  const ExemplarSet set = ExemplarSet::synthesize(80'000, rng);  // 20.8 MB
  const std::uint64_t during = g_alloc_bytes.load() - before;
  EXPECT_EQ(set.bytes(), 20'800'000u);
  // The flag array (80 KB) and a few words; not the image.
  EXPECT_LT(during, 1024u * 1024u);
}

TEST_F(ReceiveAllocVm, PvmOptSlaveAdoptsATenMegabyteShare) {
  sim::Rng rng(1);
  const ExemplarSet data = ExemplarSet::synthesize_bytes(10'000'000, rng);
  std::uint64_t during_recv = ~std::uint64_t{0};
  ExemplarSet mine;
  // PvmOpt::master_main's distribution, one slave.
  vm.register_program("master", [&data](pvm::Task& t) -> sim::Co<void> {
    t.initsend().pk_float_image(data.image(0, data.size()));
    co_await t.send(pvm::Tid::make(1, 1), kTagData);
  });
  // PvmOpt::slave_main's receive path, once the share is queued: the 10 MB
  // body crosses the 10 Mb/s wire in about 9 s.
  vm.register_program(
      "slave", [this, &during_recv, &mine](pvm::Task& t) -> sim::Co<void> {
        co_await sim::Delay(eng, 60.0);
        EXPECT_TRUE(t.probe(pvm::kAny, kTagData));
        const std::uint64_t before = g_alloc_bytes.load();
        co_await t.recv(pvm::kAny, kTagData);
        mine = ExemplarSet::adopt(t.rbuf().upk_float_image());
        during_recv = g_alloc_bytes.load() - before;
      });
  auto start = [&]() -> sim::Proc {
    co_await vm.spawn("slave", 1, "host2");
    co_await vm.spawn("master", 1, "host1");
  };
  sim::spawn(eng, start());
  run_all();
  EXPECT_EQ(mine.size(), data.size());
  EXPECT_EQ(mine.checksum(), data.checksum());
  EXPECT_EQ(mine.image().data.get(), data.image().data.get());
  EXPECT_LT(during_recv, kReceiveBudget);
}

TEST_F(ReceiveAllocVm, AdmMoveOfFiveMegabytesIsNotCopied) {
  sim::Rng rng(2);
  ExemplarSet sender_slice = ExemplarSet::synthesize(40'000, rng);  // 10.4 MB
  ExemplarSet mine = ExemplarSet::synthesize(1'000, rng);
  const std::uint64_t total = sender_slice.checksum() + mine.checksum();
  std::uint64_t during_recv = ~std::uint64_t{0};
  // AdmOpt::do_moves: the sender ships a batch off the back of its slice...
  vm.register_program(
      "sender", [&sender_slice](pvm::Task& t) -> sim::Co<void> {
        const ExemplarSet batch = sender_slice.take_back(20'000);  // 5.2 MB
        pack_move(t.initsend(), batch);
        co_await t.send(pvm::Tid::make(1, 1), kTagMove);
      });
  // ...and the receiver unpacks it and integrates it into its own.
  vm.register_program(
      "receiver", [this, &during_recv, &mine](pvm::Task& t) -> sim::Co<void> {
        co_await sim::Delay(eng, 30.0);
        EXPECT_TRUE(t.probe(pvm::kAny, kTagMove));
        const std::uint64_t before = g_alloc_bytes.load();
        co_await t.recv(pvm::kAny, kTagMove);
        const ExemplarSet batch = unpack_move(t.rbuf());
        mine.append(batch);
        during_recv = g_alloc_bytes.load() - before;
      });
  auto start = [&]() -> sim::Proc {
    co_await vm.spawn("receiver", 1, "host2");
    co_await vm.spawn("sender", 1, "host1");
  };
  sim::spawn(eng, start());
  run_all();
  EXPECT_EQ(mine.size(), 21'000u);
  EXPECT_EQ(sender_slice.size(), 20'000u);
  EXPECT_EQ(mine.checksum() + sender_slice.checksum(), total);
  EXPECT_LT(during_recv, kReceiveBudget);
}

}  // namespace
}  // namespace cpe::opt
