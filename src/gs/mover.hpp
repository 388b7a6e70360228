// The one contract between the Global Scheduler and a migration system that
// moves a unit to a destination host (DESIGN.md §12.4).  In the paper the
// CPE GS gives every system the same command, "get this VP off host X"; the
// systems differ in mechanism only.  So the GS's vacate and rebalance
// drivers speak this interface, and one adapter per system maps it onto its
// protocol: MPVM (unit = the task's logical tid) and UPVM (unit = 2^40 + the
// ULP instance).  ADM moves no unit: the GS posts its slaves withdraw and
// rejoin events directly, on owner events only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mpvm/mpvm.hpp"
#include "upvm/upvm.hpp"

namespace cpe::gs {

class Mover {
 public:
  /// How one move ended: `abandoned` holds the reason the system refused it
  /// outright (stale epoch, unknown unit, incompatible destination);
  /// otherwise `ok` says whether the protocol completed, `failure` why not.
  struct Result {
    bool ok = false;
    std::string failure;
    std::string abandoned;
  };
  /// How spans name a unit: its track and one identifying attribute.
  struct SpanTag {
    std::int64_t track = 0;
    const char* key = "";
    std::string value;
  };

  Mover() = default;
  Mover(const Mover&) = delete;
  Mover& operator=(const Mover&) = delete;
  virtual ~Mover() = default;

  /// True when `unit` lies in this system's id range.
  [[nodiscard]] virtual bool owns(std::int64_t unit) const = 0;
  /// The live units on `host`, in the system's order (tids, ULP instances).
  [[nodiscard]] virtual std::vector<std::int64_t> units_on(
      const os::Host& host) const = 0;
  /// How many live units sit on `host`.
  [[nodiscard]] virtual std::size_t count_on(const os::Host& host) const = 0;
  /// Where `unit` lives now; nullptr once it exited or finished.
  [[nodiscard]] virtual os::Host* host_of(std::int64_t unit) const = 0;
  [[nodiscard]] virtual bool migrating(std::int64_t unit) const = 0;
  /// The unit's journal name ("t1.3", "ULP3").
  [[nodiscard]] virtual std::string name(std::int64_t unit) const = 0;
  /// The fuller form a migrate order uses ("t1.3 (worker)").
  [[nodiscard]] virtual std::string describe(std::int64_t unit) const {
    return name(unit);
  }
  [[nodiscard]] virtual SpanTag span_tag(std::int64_t unit) const = 0;
  /// Move `unit` to `to`, fenced by `epoch` and traced under `ctx`.
  [[nodiscard]] virtual sim::Co<Result> move(
      std::int64_t unit, os::Host& to, std::optional<std::uint64_t> epoch,
      obs::TraceContext ctx) = 0;
  /// Ask an in-flight move to roll back; false when nothing is pending, an
  /// abort is already on its way, or the system cannot abort (UPVM).
  virtual bool abort(std::int64_t /*unit*/, const std::string& /*reason*/) {
    return false;
  }
};

[[nodiscard]] std::unique_ptr<Mover> make_mover(mpvm::Mpvm& m);
[[nodiscard]] std::unique_ptr<Mover> make_mover(upvm::Upvm& u);
/// The MPVM unit of task `tid` (checkpoint recovery keys on it too).
[[nodiscard]] std::int64_t task_unit(pvm::Tid tid) noexcept;

}  // namespace cpe::gs
