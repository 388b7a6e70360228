#include "gs/mover.hpp"

#include <algorithm>

namespace cpe::gs {
namespace {

constexpr std::int64_t kUlpBase = std::int64_t{1} << 40;

/// Await one system's migrate call and fold its stats, or its refusal
/// (`Refusal` thrown before the protocol starts), into a Result.
template <class Refusal, class Stats>
sim::Co<Mover::Result> settle(sim::Co<Stats> migration) {
  Mover::Result r;
  try {
    const Stats st = co_await std::move(migration);
    r.ok = st.ok;
    r.failure = st.failure;
  } catch (const Refusal& e) {
    r.abandoned = e.what();
  }
  co_return r;
}

class MpvmMover final : public Mover {
 public:
  explicit MpvmMover(mpvm::Mpvm& m) : m_(&m) {}

  bool owns(std::int64_t unit) const override {
    return unit >= 0 && unit < kUlpBase;
  }
  // A task sits in its daemon's table from spawn to exit, and a migration
  // moves it between tables in one step, so the table of `host`'s daemon
  // holds exactly its live tasks.
  std::vector<std::int64_t> units_on(const os::Host& host) const override {
    std::vector<std::int64_t> out;
    if (const pvm::Pvmd* d = m_->vm().daemon_on(host)) {
      out.reserve(d->local_task_count());
      for (const auto& [current, t] : d->local_tasks())
        out.push_back(task_unit(t->tid()));
      std::sort(out.begin(), out.end());  // the registry's order
    }
    return out;
  }
  std::size_t count_on(const os::Host& host) const override {
    const pvm::Pvmd* d = m_->vm().daemon_on(host);
    return d == nullptr ? 0 : d->local_task_count();
  }
  os::Host* host_of(std::int64_t unit) const override {
    const pvm::Task* t = m_->vm().find_logical(tid(unit));
    return t == nullptr || t->exited() ? nullptr : &t->pvmd().host();
  }
  bool migrating(std::int64_t unit) const override {
    return m_->migrating(tid(unit));
  }
  std::string name(std::int64_t unit) const override {
    return tid(unit).str();
  }
  std::string describe(std::int64_t unit) const override {
    const pvm::Task* t = m_->vm().find_logical(tid(unit));
    return name(unit) + " (" + (t == nullptr ? "?" : t->program()) + ")";
  }
  SpanTag span_tag(std::int64_t unit) const override {
    return {unit, "task", name(unit)};
  }
  sim::Co<Result> move(std::int64_t unit, os::Host& to,
                       std::optional<std::uint64_t> epoch,
                       obs::TraceContext ctx) override {
    return settle<mpvm::MigrationError>(
        m_->migrate(tid(unit), to, epoch, ctx));
  }
  bool abort(std::int64_t unit, const std::string& reason) override {
    return m_->request_abort(tid(unit), reason);
  }

 private:
  static pvm::Tid tid(std::int64_t unit) {
    return pvm::Tid(static_cast<std::int32_t>(unit));
  }
  mpvm::Mpvm* m_;
};

class UpvmMover final : public Mover {
 public:
  explicit UpvmMover(upvm::Upvm& u) : u_(&u) {}

  bool owns(std::int64_t unit) const override {
    return unit >= kUlpBase && unit < 2 * kUlpBase;
  }
  std::vector<std::int64_t> units_on(const os::Host& host) const override {
    std::vector<std::int64_t> out;
    for (int i = 0; i < u_->nulps(); ++i)
      if (lives_on(i, host)) out.push_back(kUlpBase + i);
    return out;
  }
  std::size_t count_on(const os::Host& host) const override {
    std::size_t n = 0;
    for (int i = 0; i < u_->nulps(); ++i)
      if (lives_on(i, host)) ++n;
    return n;
  }
  os::Host* host_of(std::int64_t unit) const override {
    const upvm::Ulp* u = u_->ulp(inst(unit));
    return u == nullptr || u->done() ? nullptr : &u->host();
  }
  bool migrating(std::int64_t unit) const override {
    return u_->migrating(inst(unit));
  }
  std::string name(std::int64_t unit) const override {
    return "ULP" + std::to_string(inst(unit));
  }
  SpanTag span_tag(std::int64_t unit) const override {
    return {inst(unit), "ulp", std::to_string(inst(unit))};
  }
  sim::Co<Result> move(std::int64_t unit, os::Host& to,
                       std::optional<std::uint64_t> epoch,
                       obs::TraceContext ctx) override {
    return settle<Error>(u_->migrate_ulp(inst(unit), to, epoch, ctx));
  }

 private:
  static int inst(std::int64_t unit) {
    return static_cast<int>(unit - kUlpBase);
  }
  bool lives_on(int i, const os::Host& host) const {
    const upvm::Ulp* u = u_->ulp(i);
    return u != nullptr && !u->done() && &u->host() == &host;
  }
  upvm::Upvm* u_;
};

}  // namespace

std::unique_ptr<Mover> make_mover(mpvm::Mpvm& m) {
  return std::make_unique<MpvmMover>(m);
}

std::unique_ptr<Mover> make_mover(upvm::Upvm& u) {
  return std::make_unique<UpvmMover>(u);
}

std::int64_t task_unit(pvm::Tid tid) noexcept { return tid.raw(); }

}  // namespace cpe::gs
