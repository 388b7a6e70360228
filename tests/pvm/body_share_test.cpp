// Shared message bodies (DESIGN.md §13.3): copies of a Buffer share its
// encoded payload and keep their own unpack cursor, a write clones a shared
// payload first, and receiving a message costs no copy of its bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "pvm/system.hpp"
#include "support/pvm_fixture.hpp"

// -- Global allocation counter ------------------------------------------------
// Replaces the global allocator for the whole test binary so a test can
// bound what a code path allocates.  Counting only; semantics unchanged.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) noexcept {
  ++g_allocs;
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

namespace cpe::pvm {
namespace {

struct BodyShareVm : cpe::test::WorknetFixture {};

const std::vector<double> kDoubles(64, 1.5);

TEST(BodyShare, EmptyBuffersAllocateNothing) {
  const std::uint64_t before = g_allocs.load();
  Buffer a;
  Buffer b(a);
  Buffer c = std::move(b);
  EXPECT_EQ(g_allocs.load(), before);
  EXPECT_EQ(c.bytes(), 0u);
  EXPECT_EQ(a.crc32(), 0u);
}

TEST(BodyShare, CopiesUnpackIndependently) {
  Buffer a;
  a.pk_int(1);
  a.pk_int(2);
  Buffer b(a);
  EXPECT_EQ(a.upk_int(), 1);
  EXPECT_EQ(a.upk_int(), 2);
  EXPECT_TRUE(a.exhausted());
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.upk_int(), 1);
  Buffer c(b);  // the copy starts where its source stands
  EXPECT_EQ(c.upk_int(), 2);
  EXPECT_EQ(b.upk_int(), 2);
}

TEST(BodyShare, PackingIntoACopyLeavesTheOriginal) {
  Buffer a;
  a.pk_double(kDoubles);
  const std::uint32_t crc = a.crc32();
  Buffer b(a);
  b.pk_int(9);
  EXPECT_EQ(a.item_count(), 1u);
  EXPECT_EQ(b.item_count(), 2u);
  EXPECT_EQ(b.bytes(), a.bytes() + Buffer::kItemHeaderBytes + 4);
  EXPECT_EQ(a.crc32(), crc);
  EXPECT_NE(b.crc32(), crc);
  std::vector<double> out(kDoubles.size());
  a.upk_double(out);
  EXPECT_EQ(out, kDoubles);
  EXPECT_TRUE(a.exhausted());
  b.upk_double(out);
  EXPECT_EQ(out, kDoubles);
  EXPECT_EQ(b.upk_int(), 9);
}

TEST(BodyShare, CorruptingACopyLeavesTheOriginal) {
  Buffer a;
  a.pk_double(kDoubles);
  const std::uint32_t crc = a.crc32();
  Buffer b(a);
  b.corrupt_bit(3137);
  EXPECT_EQ(a.crc32(), crc);
  EXPECT_NE(b.crc32(), crc);
  std::vector<double> out(kDoubles.size());
  a.upk_double(out);
  EXPECT_EQ(out, kDoubles);
  b.upk_double(out);
  EXPECT_NE(out, kDoubles);
}

TEST_F(BodyShareVm, ReceivingAMegabyteAllocatesFarLessThanTheBody) {
  constexpr std::size_t kBody = std::size_t{1} << 20;
  std::uint64_t during_recv = ~std::uint64_t{0};
  std::size_t received = 0;
  vm.register_program("sender", [](Task& t) -> sim::Co<void> {
    t.initsend().pk_byte(std::vector<std::byte>(kBody, std::byte{7}));
    co_await t.send(Tid::make(1, 1), 1);
  });
  vm.register_program(
      "receiver", [this, &during_recv, &received](Task& t) -> sim::Co<void> {
        // Long after the body has crossed the 10 Mb/s wire: the recv below
        // takes a queued message.
        co_await sim::Delay(eng, 30.0);
        EXPECT_TRUE(t.probe(kAny, 1));
        const std::uint64_t before = g_alloc_bytes.load();
        co_await t.recv(kAny, 1);
        during_recv = g_alloc_bytes.load() - before;
        std::vector<std::byte> body(t.rbuf().next_count());
        t.rbuf().upk_byte(body);
        received = body.size();
        EXPECT_EQ(body.front(), std::byte{7});
        EXPECT_EQ(body.back(), std::byte{7});
      });
  auto start = [&]() -> sim::Proc {
    co_await vm.spawn("receiver", 1, "host2");
    co_await vm.spawn("sender", 1, "host1");
  };
  sim::spawn(eng, start());
  run_all();
  EXPECT_EQ(received, kBody);
  EXPECT_LT(during_recv, kBody / 64);
}

}  // namespace
}  // namespace cpe::pvm
