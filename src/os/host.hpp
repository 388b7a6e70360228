// Workstation and process model.
//
// A Host is a workstation on the worknet: an arch tag (migration
// compatibility), a relative CPU speed, a processor-sharing scheduler, and a
// process table.  A Process models a Unix process: a memory image
// (data/heap/stack segments — what MPVM must move), the "inside the
// run-time library" re-entrancy guard that MPVM's migration protocol
// honours, and the main program coroutine.  Signals are not modelled as
// objects: a migrator charges the host's signal latency as a plain delay.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "os/cpu.hpp"
#include "sim/wait.hpp"

namespace cpe::os {

using Pid = std::int32_t;

/// Sizes of a process's migratable memory image.  MPVM transfers
/// data+heap+stack+context; the text segment is re-created by exec'ing the
/// same binary on the destination (the "skeleton" process).
struct MemoryImage {
  std::size_t text_bytes = 512 * 1024;
  std::size_t data_bytes = 0;
  std::size_t heap_bytes = 0;
  std::size_t stack_bytes = 64 * 1024;
  std::size_t context_bytes = 4 * 1024;

  [[nodiscard]] std::size_t migratable_bytes() const noexcept {
    return data_bytes + heap_bytes + stack_bytes + context_bytes;
  }
};

struct HostConfig {
  std::string name;
  std::string arch = "HPPA";  ///< migration-compatibility class (§3.3)
  double speed = 1.0;         ///< relative to the reference HP 9000/720
  double mflops = 15.0;       ///< sustained FLOP rate for workload models
  std::size_t memory_bytes = 64ull * 1024 * 1024;
  sim::Time signal_latency = 500e-6;  ///< kill(2) to handler entry

  HostConfig() = default;
  explicit HostConfig(std::string name_, std::string arch_ = "HPPA",
                      double speed_ = 1.0)
      : name(std::move(name_)), arch(std::move(arch_)), speed(speed_) {}
};

class Host;

class Process {
 public:
  Process(Host& host, Pid pid, std::string name);
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] Host& host() const noexcept { return *host_; }
  [[nodiscard]] Pid pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }

  [[nodiscard]] MemoryImage& image() noexcept { return image_; }
  [[nodiscard]] const MemoryImage& image() const noexcept { return image_; }

  /// Run the process's main program.  The coroutine is owned by the process;
  /// kill() aborts it at any suspension point.
  void run(sim::Co<void> program);

  /// Terminate: abort the program coroutine and mark the process dead.  The
  /// process table entry remains (a zombie) until the Host reaps it.
  void kill() noexcept;

  // -- Run-time-library re-entrancy guard (paper §2.1) ---------------------
  /// While a task executes inside the PVM run-time library it must not be
  /// migrated; the library brackets such sections with this RAII guard, and
  /// the migration machinery waits on library_exited() when it finds the
  /// flag set.
  class LibraryGuard {
   public:
    explicit LibraryGuard(Process& p) : p_(&p) { ++p_->in_library_; }
    LibraryGuard(const LibraryGuard&) = delete;
    LibraryGuard& operator=(const LibraryGuard&) = delete;
    ~LibraryGuard();

   private:
    Process* p_;
  };
  [[nodiscard]] LibraryGuard enter_library() { return LibraryGuard(*this); }
  [[nodiscard]] bool in_library() const noexcept { return in_library_ > 0; }
  [[nodiscard]] sim::Trigger& library_exited() noexcept {
    return library_exited_;
  }

  // -- CPU ----------------------------------------------------------------
  /// Consume `work` reference-seconds of CPU on the process's current host.
  /// The burst registers itself in active_burst so a migration can pause it.
  [[nodiscard]] CpuScheduler::Compute compute(double work);

  /// The compute burst currently executing, if any (migration pause hook).
  std::shared_ptr<CpuJob> active_burst;

  /// Re-home the process onto another host (used by migration: the adopted
  /// "skeleton" process continues the program of the migrated one).
  void rehome(Host& new_host) noexcept { host_ = &new_host; }

  // -- Crash survivability --------------------------------------------------
  /// A crash-recoverable process (one watched by a checkpointer) is not
  /// killed by Host::crash(): its image survives on the checkpoint server
  /// and a recovery driver restarts it elsewhere.  The in-memory coroutine
  /// is still stranded (its burst is detached), so the process makes no
  /// progress until recovered.
  void set_crash_recoverable(bool on) noexcept { crash_recoverable_ = on; }
  [[nodiscard]] bool crash_recoverable() const noexcept {
    return crash_recoverable_;
  }

 private:
  Host* host_;
  Pid pid_;
  std::string name_;
  bool alive_ = true;
  MemoryImage image_;
  bool crash_recoverable_ = false;
  int in_library_ = 0;
  sim::Trigger library_exited_;
  sim::ProcHandle program_;
};

/// Host fault-model transitions, reported to observers.
enum class HostEvent : std::uint8_t {
  kCrash,    ///< the workstation went down; processes died or are stranded
  kRecover,  ///< the workstation came back (empty process table)
  kFreeze,   ///< transient hang: CPU and NIC stalled, nothing is lost
  kUnfreeze,
};

class Host {
 public:
  using Observer = std::function<void(Host&, HostEvent)>;

  Host(sim::Engine& eng, net::Network& net, HostConfig cfg);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] sim::Engine& engine() const noexcept { return eng_; }
  [[nodiscard]] net::Network& network() const noexcept { return *net_; }
  [[nodiscard]] const HostConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::string& name() const noexcept { return cfg_.name; }
  [[nodiscard]] const std::string& arch() const noexcept { return cfg_.arch; }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] CpuScheduler& cpu() noexcept { return cpu_; }

  /// Two hosts are migration-compatible when they share an architecture /
  /// OS class (paper §3.3: "similar, if not the same, characteristics").
  [[nodiscard]] bool migration_compatible_with(const Host& other) const {
    return cfg_.arch == other.cfg_.arch;
  }

  Process& create_process(std::string name);
  /// Kill and remove a process.  No-op if the pid is unknown.
  void reap(Pid pid);
  /// Withdraw a process from this host's table without killing it (the
  /// migration machinery moves it to the destination host via adopt()).
  [[nodiscard]] std::unique_ptr<Process> release(Pid pid);
  /// Install a process released from another host; re-homes it here.
  Process& adopt(std::unique_ptr<Process> proc);
  [[nodiscard]] Process* find(Pid pid) noexcept;
  [[nodiscard]] std::size_t process_count() const noexcept {
    return processes_.size();
  }

  // -- Fault model ----------------------------------------------------------
  [[nodiscard]] bool up() const noexcept { return up_; }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// The workstation crashes: every process dies (crash-recoverable ones are
  /// merely stranded — their bursts detach but the Process object survives
  /// for a checkpoint-driven restart elsewhere), the NIC detaches from the
  /// ethernet, the CPU stops, and observers are notified.
  void crash();
  /// The workstation reboots: NIC reattaches, CPU runs again.  Processes
  /// killed by the crash do not come back.
  void recover();
  /// Transient freeze (e.g. a thrashing or wedged workstation): CPU and NIC
  /// stall, but nothing is lost; unfreeze() resumes exactly where it stopped.
  void freeze();
  void unfreeze();

  /// Observers fire synchronously inside crash()/recover()/freeze()/
  /// unfreeze(), after the host state has changed.  The returned id
  /// removes the observer again, for owners that die before the host.
  std::uint64_t add_observer(Observer obs) {
    observers_.emplace_back(++last_observer_, std::move(obs));
    return last_observer_;
  }
  void remove_observer(std::uint64_t id) {
    std::erase_if(observers_, [id](const auto& o) { return o.first == id; });
  }

 private:
  void notify(HostEvent ev);

  sim::Engine& eng_;
  net::Network* net_;
  HostConfig cfg_;
  net::NodeId node_;
  CpuScheduler cpu_;
  Pid next_pid_ = 100;
  bool up_ = true;
  bool frozen_ = false;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::pair<std::uint64_t, Observer>> observers_;
  std::uint64_t last_observer_ = 0;
};

}  // namespace cpe::os
