// ConcurrentMigrationSweep (DESIGN.md §12): k concurrent admission slots ×
// a fault scenario, against a worknet of chatting task pairs that keep
// sending while the Global Scheduler drains their host.  Every cell asserts
// the concurrency-safety properties the tentpole promises:
//
//   * no deadlock — every task finishes its program before the horizon
//     (a wedged flush/transfer would leave live tasks behind);
//   * no lost or duplicated message — each pair's echo stream arrives
//     exactly once, in order, across however many relocations raced it;
//   * fencing monotonicity and protocol shape — the TraceAuditor replays
//     the run's spans and must come back clean (stage completeness, scoped
//     flush, residual linkage, epoch monotonicity, abort handling).
//
// Faults land on the preferred destination *before* the first restart can
// have landed there, so crashes/partitions force rollback-and-retry rather
// than task loss (destination death after the point of no return is a
// different, checkpoint-shaped story — covered in tests/fault).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "gs/scheduler.hpp"
#include "mpvm/mpvm.hpp"
#include "obs/audit.hpp"

namespace cpe {
namespace {

using pvm::Task;
using pvm::Tid;

enum class FaultKind { kNone, kCrash, kFreeze, kPartition };

std::string fault_name(FaultKind f) {
  switch (f) {
    case FaultKind::kNone: return "None";
    case FaultKind::kCrash: return "Crash";
    case FaultKind::kFreeze: return "Freeze";
    case FaultKind::kPartition: return "Partition";
  }
  return "?";
}

class ConcurrentMigrationSweep
    : public ::testing::TestWithParam<std::tuple<int, FaultKind>> {};

TEST_P(ConcurrentMigrationSweep, DrainsWithoutDeadlockLossOrDuplication) {
  const auto [k, fault] = GetParam();
  constexpr int kPairs = 4;        // 8 tasks on the drained host
  constexpr int kRounds = 30;      // ping-pong exchanges per pair
  constexpr double kHorizon = 120.0;

  sim::Engine eng;
  net::Network net(eng);
  os::Host src(eng, net, os::HostConfig("src", "HPPA", 1.0));
  std::vector<std::unique_ptr<os::Host>> dests;
  for (int i = 1; i <= 4; ++i)
    dests.push_back(std::make_unique<os::Host>(
        eng, net, os::HostConfig("d" + std::to_string(i), "HPPA", 1.0)));
  pvm::PvmSystem vm(eng, net);
  vm.add_host(src);
  for (auto& d : dests) vm.add_host(*d);
  mpvm::Mpvm mpvm(vm);

  gs::GsPolicy policy;
  policy.max_concurrent_migrations = k;
  policy.migration_watchdog = 8.0;  // abort wedged streams well inside horizon
  gs::GlobalScheduler gs(vm, policy);
  gs.attach(mpvm);

  // Each pair ping-pongs sequence numbers: odd instances initiate, even
  // instances echo.  Both sides record what they unpacked so the properties
  // below can check exactly-once, in-order delivery end to end.
  std::map<unsigned, std::vector<int>> got;  // inst -> seqs, arrival order
  vm.register_program("chatter", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 2'000'000;
    const std::uint32_t inst = t.tid().task_num();
    const bool initiator = (inst % 2) == 1;
    const Tid peer = Tid::make(0, initiator ? inst + 1 : inst - 1);
    // Spawns serialize at ~0.38 s/task: wait until the whole worknet is
    // enrolled (a message to a not-yet-spawned tid is simply lost).
    co_await sim::Delay(eng, 5.0);
    for (int i = 0; i < kRounds; ++i) {
      if (initiator) {
        t.initsend().pk_int(i);
        co_await t.send(peer, 11);
        co_await t.recv(pvm::kAny, 12);
        got[inst].push_back(t.rbuf().upk_int());
      } else {
        co_await t.recv(pvm::kAny, 11);
        const int seq = t.rbuf().upk_int();
        got[inst].push_back(seq);
        t.initsend().pk_int(seq);
        co_await t.send(peer, 12);
      }
      co_await t.compute(0.5);  // keep chatting across the whole drain
    }
  });

  fault::FaultPlan plan(eng, /*seed=*/static_cast<std::uint64_t>(k) * 10 +
                                 static_cast<std::uint64_t>(fault));
  os::Host& d1 = *dests[0];  // ranked first: migrations hit it before faults
  switch (fault) {
    case FaultKind::kNone:
      break;
    case FaultKind::kCrash:
      // Dies before the first restart can land (earliest ≈ 6.6 s): every
      // stream aimed at it rolls back and retries elsewhere.
      plan.crash_at(d1, 5.3);
      plan.recover_at(d1, 20.0);
      break;
    case FaultKind::kFreeze:
      plan.freeze_at(d1, 5.3, 4.0);
      break;
    case FaultKind::kPartition: {
      os::Host* island[] = {&d1};
      plan.partition_window(net.ethernet(), island, 5.3, 4.0);
      break;
    }
  }

  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("chatter", 2 * kPairs, "src");
    co_await sim::Delay(eng, 5.0 - eng.now());
    os::OwnerEvent ev(eng.now(), src, os::OwnerAction::kReclaim, 1);
    gs.on_owner_event(ev);
  };
  sim::spawn(eng, driver());
  gs.start_heartbeat(kHorizon);
  eng.run_until(kHorizon);

  // No deadlock, no task loss: every chatter ran to completion.
  EXPECT_EQ(vm.live_task_count(), 0u)
      << "k=" << k << " fault=" << fault_name(fault)
      << ": tasks still blocked at horizon";

  // No lost or duplicated message: both directions of every pair saw the
  // full sequence exactly once, in order.
  ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * kPairs));
  for (const auto& [inst, seqs] : got) {
    ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kRounds))
        << "t0." << inst << " (k=" << k << " fault=" << fault_name(fault)
        << ")";
    for (int i = 0; i < kRounds; ++i)
      EXPECT_EQ(seqs[static_cast<std::size_t>(i)], i) << "t0." << inst;
  }

  // Every admitted stream resolved (released or reaped): nothing leaks.
  EXPECT_EQ(gs.admission().active(), 0u);

  // Protocol shape + fencing: the auditor replays the whole run.
  const obs::TraceAuditor auditor(vm.spans());
  EXPECT_TRUE(auditor.ok()) << obs::TraceAuditor::format(auditor.audit());
}

INSTANTIATE_TEST_SUITE_P(
    KByFault, ConcurrentMigrationSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(FaultKind::kNone, FaultKind::kCrash,
                                         FaultKind::kFreeze,
                                         FaultKind::kPartition)),
    [](const ::testing::TestParamInfo<std::tuple<int, FaultKind>>& p) {
      return "K" + std::to_string(std::get<0>(p.param)) +
             fault_name(std::get<1>(p.param));
    });

}  // namespace
}  // namespace cpe
