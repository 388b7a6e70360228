// End-to-end exactly-once hardening (DESIGN.md §7): the CRC-32 wire
// checksum, the per-sender sequence window in Task::accept, and both
// defenses exercised over a genuinely adversarial fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <string_view>
#include <vector>

#include "pvm/system.hpp"
#include "sim/random.hpp"
#include "support/pvm_fixture.hpp"

namespace cpe::pvm {
namespace {

using cpe::test::WorknetFixture;

// ---------------------------------------------------------------------------
// Buffer::crc32 / corrupt_bit unit behaviour.

TEST(BufferCrc, StableAcrossIdenticalContent) {
  Buffer a;
  a.pk_int(42);
  a.pk_str("state");
  Buffer b;
  b.pk_int(42);
  b.pk_str("state");
  EXPECT_EQ(a.crc32(), b.crc32());
}

TEST(BufferCrc, SensitiveToContentAndItemMetadata) {
  Buffer a;
  a.pk_int(42);
  Buffer b;
  b.pk_int(43);
  EXPECT_NE(a.crc32(), b.crc32());
  // Same payload bytes, different item tag: the checksum covers metadata.
  Buffer c;
  c.pk_uint(42);
  EXPECT_NE(a.crc32(), c.crc32());
}

TEST(BufferCrc, SingleBitFlipChangesTheChecksum) {
  Buffer a;
  a.pk_double(std::vector<double>(100, 1.5));
  const std::uint32_t before = a.crc32();
  a.corrupt_bit(3137);
  EXPECT_NE(a.crc32(), before);
}

TEST(BufferCrc, CorruptBitOnEmptyBufferIsANoop) {
  Buffer a;
  const std::uint32_t before = a.crc32();
  a.corrupt_bit(99);
  EXPECT_EQ(a.crc32(), before);
}

// The bytewise frame CRC that slicing-by-16 replaced, kept as the reference
// the fast kernel must equal: reflected 0xEDB88320, one lookup per byte.
std::uint32_t reference_crc32_update(std::uint32_t crc, const void* data,
                                     std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc;
}

// Buffer::crc32's framing of the wire image: per item, the 1-byte type tag
// (Buffer::Tag order), the 8-byte host-order element count, then the
// encoded payload.
struct ReferenceFrame {
  std::uint32_t crc = 0xFFFFFFFFu;
  void item(std::uint8_t tag, std::uint64_t count,
            std::span<const unsigned char> payload) {
    crc = reference_crc32_update(crc, &tag, sizeof tag);
    crc = reference_crc32_update(crc, &count, sizeof count);
    crc = reference_crc32_update(crc, payload.data(), payload.size());
  }
  [[nodiscard]] std::uint32_t value() const { return crc ^ 0xFFFFFFFFu; }
};

// Big-endian (XDR) word at p: what pk_int/pk_long put on the wire.
template <class Word>
Word read_be(const unsigned char* p) {
  Word w = 0;
  for (std::size_t i = 0; i < sizeof(Word); ++i)
    w = static_cast<Word>(w << 8 | p[i]);
  return w;
}

TEST(BufferCrc, EqualsTheBytewiseReferenceOverSeededBuffers) {
  constexpr std::uint8_t kTagInt = 0, kTagLong = 2, kTagByte = 5, kTagStr = 6;
  std::array<bool, 16> tail_seen{};
  std::size_t most_blocks = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    sim::Rng rng(seed);
    Buffer b;
    ReferenceFrame ref;
    const std::uint64_t items = 1 + rng.below(6);
    for (std::uint64_t k = 0; k < items; ++k) {
      std::vector<unsigned char> raw(rng.below(71));
      for (unsigned char& c : raw)
        c = static_cast<unsigned char>(rng.below(256));
      switch (rng.below(4)) {
        case 0: {  // int32: the payload is the first 4m raw bytes
          std::vector<std::int32_t> v(raw.size() / 4);
          for (std::size_t j = 0; j < v.size(); ++j)
            v[j] = std::bit_cast<std::int32_t>(
                read_be<std::uint32_t>(raw.data() + 4 * j));
          raw.resize(4 * v.size());
          b.pk_int(v);
          ref.item(kTagInt, v.size(), raw);
          break;
        }
        case 1: {  // int64: the first 8m raw bytes
          std::vector<std::int64_t> v(raw.size() / 8);
          for (std::size_t j = 0; j < v.size(); ++j)
            v[j] = std::bit_cast<std::int64_t>(
                read_be<std::uint64_t>(raw.data() + 8 * j));
          raw.resize(8 * v.size());
          b.pk_long(v);
          ref.item(kTagLong, v.size(), raw);
          break;
        }
        case 2:
          b.pk_byte(std::as_bytes(std::span(raw)));
          ref.item(kTagByte, raw.size(), raw);
          break;
        default:
          b.pk_str(std::string_view(reinterpret_cast<const char*>(raw.data()),
                                    raw.size()));
          ref.item(kTagStr, raw.size(), raw);
          break;
      }
      tail_seen[raw.size() % 16] = true;
      most_blocks = std::max(most_blocks, raw.size() / 16);
    }
    ASSERT_EQ(b.crc32(), ref.value()) << "seed " << seed;
  }
  // The sweep reached every tail length after the 16-byte blocks, and
  // payloads of several blocks.
  for (std::size_t t = 0; t < tail_seen.size(); ++t)
    EXPECT_TRUE(tail_seen[t]) << "no payload with tail " << t;
  EXPECT_GE(most_blocks, 4u);
}

TEST(BufferCrc, PinnedValues) {
  // Computed with the bytewise kernel on a little-endian host (the count
  // word is hashed in host order).
  Buffer digits;
  const std::string_view s = "123456789";
  digits.pk_byte(std::as_bytes(std::span(s.data(), s.size())));
  EXPECT_EQ(digits.crc32(), 0xCFAA07FFu);

  Buffer mixed;
  mixed.pk_int(std::vector<std::int32_t>{-7, 0, 2147483647, 42});
  mixed.pk_float(std::vector<float>{1.5f, -0.25f, 3.0e7f});
  mixed.pk_str("checksummed frame");
  EXPECT_EQ(mixed.crc32(), 0x06D934DAu);
}

// ---------------------------------------------------------------------------
// Task::accept sequence-window unit behaviour (forged frames).

struct SequencerFixture : WorknetFixture {
  std::vector<int> got;
  Tid tid;
  Task* task = nullptr;

  /// Spawn a collector that receives `expect` tag-9 messages into `got`.
  void start_collector(int expect) {
    vm.register_program("collector", [this, expect](Task& t) -> sim::Co<void> {
      for (int i = 0; i < expect; ++i) {
        Message m = co_await t.recv(kAny, 9);
        Buffer b(*m.body);
        got.push_back(b.upk_int());
      }
    });
    auto body = [this]() -> sim::Proc {
      auto tids = co_await vm.spawn("collector", 1, "host1");
      tid = tids[0];
    };
    sim::spawn(eng, body());
    eng.run();
    task = vm.find_logical(tid);
    ASSERT_NE(task, nullptr);
  }

  /// A frame as the receiving daemon would hand it over, sequence-stamped
  /// by a (fictitious) remote sender.
  [[nodiscard]] Message forged(std::uint64_t seq, int val,
                               Tid src = Tid::make(2, 30)) const {
    auto b = std::make_shared<Buffer>();
    b->pk_int(val);
    return Message(src, tid, 9, std::move(b), seq);
  }

  [[nodiscard]] std::uint64_t ctr(const char* name) {
    return vm.metrics().counter(name).value();
  }
};

TEST_F(SequencerFixture, ReplayedSeqIsDroppedExactlyOnce) {
  start_collector(2);
  task->accept(forged(1, 10));
  task->accept(forged(1, 10));  // the fabric echoed the frame
  task->accept(forged(2, 20));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 1u);
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 0u);
}

TEST_F(SequencerFixture, OutOfOrderFramesHeldAndReleasedInOrder) {
  start_collector(3);
  task->accept(forged(3, 30));
  task->accept(forged(2, 20));
  EXPECT_EQ(task->held_messages(), 2u);
  task->accept(forged(1, 10));  // the straggler closes the gap
  EXPECT_EQ(task->held_messages(), 0u);
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(ctr("pvm.seq.reordered_held"), 2u);
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 0u);
}

TEST_F(SequencerFixture, DuplicateOfAHeldFrameIsDropped) {
  start_collector(2);
  task->accept(forged(2, 20));
  task->accept(forged(2, 20));  // duplicate while parked in the window
  EXPECT_EQ(task->held_messages(), 1u);
  task->accept(forged(1, 10));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 1u);
}

TEST_F(SequencerFixture, GapTimeoutSkipsAMissingSeq) {
  start_collector(1);
  const double held_at = eng.now();
  task->accept(forged(2, 20));  // seq 1 lost forever (sender-side give-up)
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{20}));
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 1u);
  EXPECT_EQ(task->held_messages(), 0u);
  // Liveness costs exactly the configured gap timeout.
  EXPECT_GE(eng.now(), held_at + vm.reorder_gap_timeout());
}

TEST_F(SequencerFixture, StragglerArrivingAfterGapSkipIsDropped) {
  start_collector(1);
  task->accept(forged(2, 20));
  eng.run();  // gap timeout fires, seq 1 given up
  ASSERT_EQ(ctr("pvm.seq.gaps_skipped"), 1u);
  task->accept(forged(1, 10));  // too late: the window moved past it
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{20}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 1u);
}

TEST_F(SequencerFixture, StragglerClosingTheGapBeforeTimeoutCancelsSkip) {
  start_collector(2);
  task->accept(forged(2, 20));
  // The straggler lands well before the gap deadline.
  eng.schedule_in(vm.reorder_gap_timeout() / 4,
                  [&] { task->accept(forged(1, 10)); });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 0u);
}

TEST_F(SequencerFixture, UnsequencedFramesBypassTheWindow) {
  // seq 0 marks daemon-forged frames (exit notifies): no dedup, no holds.
  start_collector(2);
  task->accept(forged(0, 7));
  task->accept(forged(0, 7));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{7, 7}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 0u);
  EXPECT_EQ(ctr("pvm.seq.reordered_held"), 0u);
}

TEST_F(SequencerFixture, WindowCapOverflowAbandonsTheGapUnderPressure) {
  // An adversarial (or wedged) peer pours frames past a gap that never
  // fills.  The PvmTuning cap must bound the reorder buffer: overflow
  // abandons the gap immediately — same semantics as the gap timeout, but
  // triggered by memory pressure — and delivery resumes in order.
  PvmTuning t;
  t.reorder_window_cap = 4;
  vm.set_tuning(t);
  start_collector(6);
  for (std::uint64_t s = 2; s <= 6; ++s)
    task->accept(forged(s, static_cast<int>(s) * 10));  // seq 1 never sent
  eng.run();
  // The 5th parked frame overflowed the 4-frame window: gap given up, all
  // held frames drained in order, nothing left parked.
  EXPECT_EQ(got, (std::vector<int>{20, 30, 40, 50, 60}));
  EXPECT_EQ(ctr("pvm.seq.window_evicted"), 1u);
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 1u);
  EXPECT_EQ(task->held_messages(), 0u);

  // The missing frame straggling in later is dropped as a replay (exactly
  // once), and the stream keeps flowing past it.
  task->accept(forged(1, 10));
  task->accept(forged(7, 70));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{20, 30, 40, 50, 60, 70}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 1u);
  EXPECT_EQ(ctr("pvm.seq.window_evicted"), 1u);  // no further evictions
}

TEST_F(SequencerFixture, TuningRejectsZeroWindowCap) {
  PvmTuning t;
  t.reorder_window_cap = 0;
  EXPECT_THROW(vm.set_tuning(t), ContractError);
}

TEST_F(SequencerFixture, WindowsArePerSender) {
  start_collector(2);
  task->accept(forged(1, 10, Tid::make(2, 30)));
  task->accept(forged(1, 11, Tid::make(2, 31)));  // same seq, other sender
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 11}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end over the adversarial fabric: real tasks, real daemons.

struct AdversarialPvmFixture : WorknetFixture {
  std::vector<int> got;
  Tid receiver_tid;
  static constexpr int kMsgs = 20;

  /// Receiver on host2, sender on host1; the adversary switches on only
  /// after both are enrolled, so spawn RPCs stay on the quiet network.
  void run_chatter(net::AdversaryParams adv) {
    vm.register_program("rx", [this](Task& t) -> sim::Co<void> {
      for (int i = 0; i < kMsgs; ++i) {
        Message m = co_await t.recv(kAny, 9);
        Buffer b(*m.body);
        got.push_back(b.upk_int());
      }
    });
    vm.register_program("tx", [this](Task& t) -> sim::Co<void> {
      co_await sim::Delay(t.system().engine(), 1.0);  // adversary armed at 0.5
      for (int i = 0; i < kMsgs; ++i) {
        t.initsend().pk_int(i);
        co_await t.send(receiver_tid, 9);
      }
    });
    eng.schedule_at(0.5, [this, adv] { net.set_adversary(adv); });
    auto body = [this]() -> sim::Proc {
      auto rx = co_await vm.spawn("rx", 1, "host2");
      receiver_tid = rx[0];
      co_await vm.spawn("tx", 1, "host1");
    };
    sim::spawn(eng, body());
    run_all();
  }

  [[nodiscard]] std::uint64_t ctr(const char* name) {
    return vm.metrics().counter(name).value();
  }

  [[nodiscard]] static std::vector<int> in_order() {
    std::vector<int> v;
    for (int i = 0; i < kMsgs; ++i) v.push_back(i);
    return v;
  }
};

TEST_F(AdversarialPvmFixture, DuplicatedFramesDeliverExactlyOnce) {
  run_chatter({.duplicate_probability = 0.5});
  EXPECT_EQ(got, in_order());
  EXPECT_GT(net.datagrams().duplicates_injected(), 0u);
  EXPECT_GT(ctr("pvm.seq.duplicates_dropped"), 0u);
}

TEST_F(AdversarialPvmFixture, ReorderedFramesReleaseInSendOrder) {
  run_chatter({.reorder_probability = 0.4, .reorder_horizon = 0.05});
  EXPECT_EQ(got, in_order());
  EXPECT_GT(net.datagrams().reorders_injected(), 0u);
  EXPECT_GT(ctr("pvm.seq.reordered_held"), 0u);
  // Horizon is far below the gap timeout: every straggler arrives in time.
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 0u);
}

TEST_F(AdversarialPvmFixture, CorruptionIsCaughtByTheFrameChecksum) {
  // Checksums on (the default): every flipped frame is detected at the
  // receiving daemon, retransmitted, and the app sees pristine data.
  run_chatter({.corrupt_probability = 0.1});
  EXPECT_EQ(got, in_order());
  EXPECT_GT(net.datagrams().corrupt_injected(), 0u);
  EXPECT_GT(net.datagrams().corrupt_dropped(), 0u);
  EXPECT_EQ(net.datagrams().corrupt_delivered(), 0u);
}

TEST_F(AdversarialPvmFixture, WithoutChecksumsGarbageReachesTheApp) {
  // The negative control: disable the frame checksum and the same flips
  // sail through — proof the CRC is what was protecting the payload.
  vm.set_wire_checksums(false);
  run_chatter({.corrupt_probability = 0.1});
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMsgs));
  EXPECT_GT(net.datagrams().corrupt_delivered(), 0u);
  std::size_t mismatches = 0;
  for (int i = 0; i < kMsgs; ++i)
    if (got[static_cast<std::size_t>(i)] != i) ++mismatches;
  EXPECT_EQ(mismatches, net.datagrams().corrupt_delivered());
}

TEST_F(AdversarialPvmFixture, FullAdversaryStillDeliversExactlyOnceInOrder) {
  run_chatter({.duplicate_probability = 0.3,
               .reorder_probability = 0.3,
               .reorder_horizon = 0.05,
               .corrupt_probability = 0.05});
  EXPECT_EQ(got, in_order());
  EXPECT_GT(net.datagrams().duplicates_injected(), 0u);
  EXPECT_GT(net.datagrams().reorders_injected(), 0u);
  EXPECT_GT(net.datagrams().corrupt_injected(), 0u);
  EXPECT_EQ(net.datagrams().corrupt_delivered(), 0u);
}

}  // namespace
}  // namespace cpe::pvm
