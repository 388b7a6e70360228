// Decentralized load sensing and dissemination (DESIGN.md §11).
//
// The paper's Global Scheduler "watches workstation ownership and load";
// the naive reproduction polls every host centrally.  This subsystem
// replaces the poll with the MOSIX recipe: each host runs a LoadSensor
// that folds its CpuScheduler's runnable set into a smoothed load index,
// and a LoadExchange agent that gossips a small vector of the freshest
// entries it knows to a few random peers.  Every host then holds an
// eventually-consistent *partial* load map — stale entries are stamped so
// consumers can discount or drop them — and the GS reads the map local to
// wherever it runs instead of touching every CPU each tick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace cpe::load {

/// Well-known datagram port of the per-host load-exchange agent.  (pvmds
/// own 1023, the replicated-GS wire owns 1022.)
inline constexpr std::uint16_t kLoadPort = 1021;

/// One host's load reading without its name: what the exchange stores per
/// host slot and gossips.  The origin stamp travels beside it.
struct LoadSample {
  double index = 0;        ///< smoothed load index (sensor EWMA)
  double instant = 0;      ///< raw runnable count at the sample instant
  int external_jobs = 0;   ///< owner jobs in that count
  bool owner_active = false;
  bool up = true;
};

/// One host's load as known somewhere on the worknet.  `stamp` is the
/// virtual time the *origin* sensor took the sample; age = now - stamp.
///
/// User-provided constructors (not an aggregate), like every type that
/// rides by value into a coroutine; see net::Datagram's GCC 12 note.
struct LoadEntry {
  std::string host;        ///< origin host name
  double index = 0;        ///< smoothed load index (sensor EWMA)
  double instant = 0;      ///< raw runnable count at the sample instant
  int external_jobs = 0;   ///< owner jobs in that count
  bool owner_active = false;
  bool up = true;
  sim::Time stamp = 0;     ///< origin sample time

  LoadEntry() noexcept {}
  LoadEntry(std::string host_, double index_, double instant_,
            int external_jobs_, bool owner_active_, bool up_,
            sim::Time stamp_)
      : host(std::move(host_)),
        index(index_),
        instant(instant_),
        external_jobs(external_jobs_),
        owner_active(owner_active_),
        up(up_),
        stamp(stamp_) {}
  LoadEntry(std::string host_, const LoadSample& s, sim::Time stamp_)
      : LoadEntry(std::move(host_), s.index, s.instant, s.external_jobs,
                  s.owner_active, s.up, stamp_) {}
};

/// Gossip payload: the sender's freshest entries (its own always first),
/// each naming its origin by the exchange's dense host id.  One immutable
/// payload per round is shared by every peer send.
struct LoadGossip {
  struct Entry {
    std::uint32_t host = 0;  ///< origin host id
    sim::Time stamp = 0;     ///< origin sample time
    LoadSample sample;
  };
  std::vector<Entry> entries;
};

/// What one gossip datagram is charged on the wire: a fixed header, and
/// nothing for the entries it carries.  That undercount is the charge the
/// simulator has always made (ROADMAP O15 has the defect and the full-size
/// formula); changing it moves every gossiping run's virtual-time results,
/// so it stays put until a change means to move them.
inline constexpr std::size_t kGossipHeaderBytes = 16;

}  // namespace cpe::load
