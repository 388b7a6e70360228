// Concurrent-safe migration machinery (DESIGN.md §12): scoped flush,
// frozen-correspondent ack substitution, residual forwarding with fencing
// epochs, incremental (pre-copy) transfer, and externally requested aborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "mpvm/mpvm.hpp"
#include "obs/audit.hpp"
#include "support/pvm_fixture.hpp"

namespace cpe::mpvm {
namespace {

using pvm::kAny;
using pvm::Task;
using pvm::Tid;

struct ConcurrentMigrationTest : cpe::test::WorknetFixture {
  Mpvm mpvm{vm};

  void expect_audit_clean() {
    const obs::TraceAuditor auditor(vm.spans());
    EXPECT_TRUE(auditor.ok()) << obs::TraceAuditor::format(auditor.audit());
  }
};

TEST_F(ConcurrentMigrationTest, FlushIsScopedToCorrespondents) {
  // The victim talked to exactly one peer; two bystanders chat between
  // themselves.  The flush round must touch only the correspondent — the
  // recorded scope is 1, not "everyone else in the machine".
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 9);
    co_await t.compute(15.0);
  });
  vm.register_program("corr", [&](Task& t) -> sim::Co<void> {
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(0, 1), 9);
    co_await t.compute(12.0);
  });
  vm.register_program("bystander_a", [&](Task& t) -> sim::Co<void> {
    t.initsend().pk_int(2);
    co_await t.send(Tid::make(2, 1), 4);
    co_await t.compute(10.0);
  });
  vm.register_program("bystander_b", [&](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 4);
    co_await t.compute(10.0);
  });
  std::optional<MigrationStats> st;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    co_await vm.spawn("corr", 1, "host2");
    co_await vm.spawn("bystander_b", 1, "sparc1");  // t2.2
    co_await vm.spawn("bystander_a", 1, "sparc1");
    co_await sim::Delay(eng, 5.0);
    st = co_await mpvm.migrate(v[0], host2);
  };
  sim::spawn(eng, driver());
  run_all();
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->ok) << st->failure;
  auto& scope = vm.metrics().histogram("mpvm.flush.scope");
  EXPECT_EQ(scope.count(), 1u);
  EXPECT_DOUBLE_EQ(scope.mean(), 1.0);  // the correspondent, nobody else
  expect_audit_clean();
}

TEST_F(ConcurrentMigrationTest, ConcurrentMigrationsSubstituteFrozenAcks) {
  // Two correspondents migrate simultaneously in opposite directions.  Each
  // one's flush finds the other frozen; the frozen side's mpvmd stub closes
  // the gate and acks in its stead, so neither migration waits on a peer
  // that cannot answer — the historic cross-flush deadlock cannot form.
  vm.register_program("pa", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 500'000;
    co_await sim::Delay(eng, 1.0);  // let pb enroll before greeting it
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(1, 1), 9);
    co_await t.recv(kAny, 9);
    co_await t.compute(20.0);
  });
  vm.register_program("pb", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 500'000;
    co_await t.recv(kAny, 9);
    t.initsend().pk_int(2);
    co_await t.send(Tid::make(0, 1), 9);
    co_await t.compute(20.0);
  });
  std::optional<MigrationStats> sa, sb;
  auto mig_a = [&](Tid v) -> sim::Proc { sa = co_await mpvm.migrate(v, host2); };
  auto mig_b = [&](Tid v) -> sim::Proc { sb = co_await mpvm.migrate(v, host1); };
  auto driver = [&]() -> sim::Proc {
    auto a = co_await vm.spawn("pa", 1, "host1");
    auto b = co_await vm.spawn("pb", 1, "host2");
    co_await sim::Delay(eng, 5.0);
    sim::spawn(eng, mig_a(a[0]));
    sim::spawn(eng, mig_b(b[0]));
  };
  sim::spawn(eng, driver());
  run_all();
  ASSERT_TRUE(sa.has_value());
  ASSERT_TRUE(sb.has_value());
  EXPECT_TRUE(sa->ok) << sa->failure;
  EXPECT_TRUE(sb->ok) << sb->failure;
  EXPECT_GE(vm.metrics().counter("mpvm.flush.acks_substituted").value(), 1u);
  expect_audit_clean();
}

TEST_F(ConcurrentMigrationTest, ResidualMessagesForwardedThenRoutedDirect) {
  // A task outside the flush scope never hears the restart broadcast; its
  // first post-move send bounces off the old host's forwarding stub (and is
  // delivered), and the stub teaches it the new mapping so the second send
  // goes direct.
  std::vector<int> got;
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 2; ++i) {
      co_await t.recv(kAny, 5);
      got.push_back(t.rbuf().upk_int());
    }
  });
  vm.register_program("stranger", [&](Task& t) -> sim::Co<void> {
    co_await sim::Delay(eng, 10.0);  // migration finished around t=6
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(0, 1), 5);  // stale mapping: bounces off host1
    co_await sim::Delay(eng, 2.0);        // route update has arrived by now
    t.initsend().pk_int(2);
    co_await t.send(Tid::make(0, 1), 5);  // goes direct
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    co_await vm.spawn("stranger", 1, "host2");
    co_await sim::Delay(eng, 5.0);
    const MigrationStats st = co_await mpvm.migrate(v[0], host2);
    EXPECT_TRUE(st.ok) << st.failure;
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));  // nothing lost or duplicated
  EXPECT_EQ(vm.metrics().counter("mpvm.residual.forwarded").value(), 1u);
  EXPECT_EQ(vm.metrics().counter("mpvm.residual.route_updates").value(), 1u);
  expect_audit_clean();
}

// One full residual-forwarding scenario with a configurable window: victim
// migrates at t=5, a stranger with a stale mapping sends once at t=10.  The
// victim uses a timed receive so the expired-stub (dropped message) variant
// still drains the event queue.
struct ResidualRun {
  std::uint64_t forwarded = 0;
  std::uint64_t route_updates = 0;
  std::size_t got = 0;
  double install_tick = -1;  // when the stub armed (expires - window)
  double fwd_tick = -1;      // when the stale send hit the old host
};

ResidualRun run_residual(double window) {
  ResidualRun out;
  sim::Engine eng;
  net::Network net{eng};
  os::Host host1{eng, net, os::HostConfig("host1", "HPPA", 1.0)};
  os::Host host2{eng, net, os::HostConfig("host2", "HPPA", 1.0)};
  pvm::PvmSystem vm{eng, net};
  vm.add_host(host1);
  vm.add_host(host2);
  Mpvm mpvm{vm};
  MpvmTuning tuning;
  tuning.residual_window = window;
  mpvm.set_tuning(tuning);
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    if (co_await t.trecv(kAny, 5, 40.0)) ++out.got;
  });
  vm.register_program("stranger", [&](Task& t) -> sim::Co<void> {
    co_await sim::Delay(eng, 10.0);  // migration finished around t=6
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(0, 1), 5);  // stale mapping: bounces off host1
    co_await sim::Delay(eng, 2.0);        // stay alive for the route update
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    co_await vm.spawn("stranger", 1, "host2");
    co_await sim::Delay(eng, 5.0);
    const MigrationStats st = co_await mpvm.migrate(v[0], host2);
    EXPECT_TRUE(st.ok) << st.failure;
  };
  sim::spawn(eng, driver());
  eng.run();
  out.forwarded = vm.metrics().counter("mpvm.residual.forwarded").value();
  out.route_updates =
      vm.metrics().counter("mpvm.residual.route_updates").value();
  // The stub arms one reenroll delay after the restart stage opens
  // (mpvm.cpp stage 4) — recover that tick from the stage span.
  if (const obs::SpanRecord* restart = vm.spans().find_named("mpvm.restart"))
    out.install_tick = restart->start + vm.costs().mpvm.reenroll;
  if (const obs::SpanRecord* fwd =
          vm.spans().find_named("mpvm.residual.forward"))
    out.fwd_tick = fwd->start;
  return out;
}

TEST_F(ConcurrentMigrationTest, ResidualAtExactExpiryForwardsOneTickLaterDrops) {
  // The expiry check is strict (`now > expires`): a message landing exactly
  // when the window runs out is still forwarded; only strictly-later
  // arrivals find the stub gone.  Calibrate with a pilot run (the engine is
  // deterministic, so the stale send hits the old host at the same tick in
  // every run), then pin the window so expiry lands on that very tick.
  const ResidualRun pilot = run_residual(30.0);
  ASSERT_EQ(pilot.forwarded, 1u);
  ASSERT_EQ(pilot.got, 1u);
  ASSERT_GT(pilot.fwd_tick, pilot.install_tick);
  // Smallest window whose expiry is at-or-past the forward tick: rounding of
  // install + window must not land short of it.
  double at = pilot.fwd_tick - pilot.install_tick;
  while (pilot.install_tick + at < pilot.fwd_tick)
    at = std::nextafter(at, std::numeric_limits<double>::infinity());
  while (true) {
    const double tighter = std::nextafter(at, 0.0);
    if (pilot.install_tick + tighter < pilot.fwd_tick) break;
    at = tighter;
  }
  const ResidualRun boundary = run_residual(at);
  EXPECT_EQ(boundary.forwarded, 1u);  // now == expires: still in the window
  EXPECT_EQ(boundary.route_updates, 1u);  // stub taught the stale sender
  EXPECT_EQ(boundary.got, 1u);
  EXPECT_EQ(boundary.fwd_tick, pilot.fwd_tick);  // determinism held
  // One representable tick shorter and the same arrival is past expiry: the
  // stub evicts itself — the daemon's permanent routing table still delivers
  // the message, but nothing counts it and the sender is never taught the
  // new mapping (it keeps bouncing off the old host).
  const ResidualRun expired = run_residual(std::nextafter(at, 0.0));
  EXPECT_EQ(expired.forwarded, 0u);
  EXPECT_EQ(expired.route_updates, 0u);
  EXPECT_EQ(expired.got, 1u);
}

TEST_F(ConcurrentMigrationTest, DuplicatedFlushAcksCannotDerailTheProtocol) {
  // Every datagram duplicated from just before the migration: flush
  // requests, flush acks, restart broadcasts, route updates all arrive
  // twice.  The ack round is keyed by a per-round stamp and a set of
  // responders, so a replayed ack neither double-counts toward the quorum
  // nor completes a later round early — the migration succeeds exactly once
  // and both correspondents' messages come through exactly once.
  std::vector<int> got;
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 4; ++i) {
      co_await t.recv(kAny, 9);
      got.push_back(t.rbuf().upk_int());
    }
  });
  vm.register_program("corr", [&](Task& t) -> sim::Co<void> {
    t.initsend().pk_int(t.tid().raw());
    co_await t.send(Tid::make(0, 1), 9);  // makes us a correspondent
    co_await sim::Delay(eng, 6.0);        // lands mid/post-migration
    t.initsend().pk_int(-t.tid().raw());
    co_await t.send(Tid::make(0, 1), 9);
  });
  std::optional<MigrationStats> st;
  std::vector<Tid> corrs;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    corrs = co_await vm.spawn("corr", 1, "host2");
    auto more = co_await vm.spawn("corr", 1, "sparc1");
    corrs.push_back(more[0]);
    co_await sim::Delay(eng, 5.0);
    st = co_await mpvm.migrate(v[0], host2);
  };
  eng.schedule_at(4.5, [&] {  // spawns done, flush round not yet started
    net.set_adversary({.duplicate_probability = 1.0});
  });
  sim::spawn(eng, driver());
  run_all();
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->ok) << st->failure;
  EXPECT_EQ(mpvm.history().size(), 1u);
  EXPECT_GT(net.datagrams().duplicates_injected(), 0u);
  // Exactly one flush round, scoped to the two correspondents — a
  // double-counted replay would have closed the round at scope 1.
  auto& scope = vm.metrics().histogram("mpvm.flush.scope");
  EXPECT_EQ(scope.count(), 1u);
  EXPECT_DOUBLE_EQ(scope.mean(), 2.0);
  // Each correspondent's pre- and post-move message arrived exactly once.
  ASSERT_EQ(corrs.size(), 2u);
  std::vector<int> want;
  for (const Tid c : corrs) {
    want.push_back(c.raw());
    want.push_back(-c.raw());
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  expect_audit_clean();
}

TEST_F(ConcurrentMigrationTest, MappingEpochFencingDropsStaleUpdates) {
  vm.register_program("noop", [](Task&) -> sim::Co<void> { co_return; });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("noop", 2); };
  sim::spawn(eng, body());
  run_all();
  Task* t = vm.all_tasks().front();
  const Tid moved = Tid::make(0, 2);
  // A newer relocation's mapping installs; an older one must not regress it.
  EXPECT_TRUE(t->learn_mapping(moved, Tid::make(1, 5), 2));
  EXPECT_FALSE(t->learn_mapping(moved, Tid::make(2, 7), 1));
  EXPECT_EQ(t->translate(moved), Tid::make(1, 5));
  EXPECT_EQ(t->mapping_epoch(moved), 2u);
  // Same epoch may re-install (an idempotent re-broadcast).
  EXPECT_TRUE(t->learn_mapping(moved, Tid::make(1, 5), 2));
}

TEST_F(ConcurrentMigrationTest, PrecopyShrinksTheFreezeWindow) {
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 4'000'000;
    co_await t.compute(40.0);
  });
  std::optional<MigrationStats> stop_copy, precopy;
  auto driver = [&]() -> sim::Proc {
    auto w = co_await vm.spawn("worker", 2, "host1");
    co_await sim::Delay(eng, 2.0);
    stop_copy = co_await mpvm.migrate(w[0], host2);
    MpvmTuning tuning;
    tuning.precopy = true;
    tuning.dirty_rate_bps = 0.1e6 * 8;  // lightly-dirtying worker
    mpvm.set_tuning(tuning);
    precopy = co_await mpvm.migrate(w[1], host2);
  };
  sim::spawn(eng, driver());
  run_all();
  ASSERT_TRUE(stop_copy.has_value());
  ASSERT_TRUE(precopy.has_value());
  EXPECT_TRUE(stop_copy->ok) << stop_copy->failure;
  EXPECT_TRUE(precopy->ok) << precopy->failure;
  EXPECT_EQ(stop_copy->precopy_bytes, 0u);
  // The whole image streamed while the task ran; only the dirty residue
  // (far smaller) crossed under freeze, so the user-visible stall shrank.
  EXPECT_GE(precopy->precopy_bytes, 4'000'000u);
  EXPECT_LT(precopy->residue_bytes, precopy->precopy_bytes / 4);
  EXPECT_LT(precopy->freeze_window(), 0.5 * stop_copy->freeze_window());
  expect_audit_clean();  // every pre-copy chunk span closed, correctly nested
}

TEST_F(ConcurrentMigrationTest, PrecopyFailureFallsBackToStopAndCopy) {
  MpvmTuning tuning;
  tuning.precopy = true;
  mpvm.set_tuning(tuning);
  int spawn_calls = 0;
  mpvm.set_skeleton_spawn_hook([&](Tid, os::Host&) {
    return ++spawn_calls > 1;  // the early (pre-copy) skeleton fails
  });
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 1'000'000;
    co_await t.compute(20.0);
  });
  std::optional<MigrationStats> st;
  auto driver = [&]() -> sim::Proc {
    auto w = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 2.0);
    st = co_await mpvm.migrate(w[0], host2);
  };
  sim::spawn(eng, driver());
  run_all();
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->ok) << st->failure;  // fell back, still migrated
  EXPECT_EQ(st->precopy_bytes, 0u);
  EXPECT_EQ(st->residue_bytes, st->state_bytes);  // full stop-and-copy
  EXPECT_EQ(vm.metrics().counter("mpvm.precopy.failed").value(), 1u);
  EXPECT_EQ(spawn_calls, 2);
  expect_audit_clean();
}

TEST_F(ConcurrentMigrationTest, RequestAbortRollsBackMidTransfer) {
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 10'000'000;  // ~10 s transfer
    co_await t.compute(20.0);
    EXPECT_EQ(&t.pvmd().host(), &host1);  // rolled back, never moved
  });
  std::optional<MigrationStats> st;
  Tid victim;
  auto driver = [&]() -> sim::Proc {
    auto w = co_await vm.spawn("worker", 1, "host1");
    victim = w[0];
    co_await sim::Delay(eng, 5.0);
    st = co_await mpvm.migrate(victim, host2);
  };
  auto watchdog = [&]() -> sim::Proc {
    co_await sim::Delay(eng, 7.0);  // mid-transfer
    EXPECT_TRUE(mpvm.request_abort(victim, "watchdog test"));
    EXPECT_FALSE(mpvm.request_abort(victim, "double"));  // already requested
  };
  sim::spawn(eng, driver());
  sim::spawn(eng, watchdog());
  run_all();
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->ok);
  EXPECT_NE(st->failure.find("watchdog test"), std::string::npos)
      << st->failure;
  EXPECT_EQ(vm.metrics().counter("mpvm.migrations.abort_requested").value(),
            1u);
  EXPECT_TRUE(mpvm.history().empty());
  // No migration pending anymore: a late abort request finds nothing.
  EXPECT_FALSE(mpvm.request_abort(victim, "late"));
  expect_audit_clean();  // the aborted migrate span has its rollback child
}

}  // namespace
}  // namespace cpe::mpvm
