#include "os/host.hpp"

namespace cpe::os {

Process::Process(Host& host, Pid pid, std::string name)
    : host_(&host), pid_(pid), name_(std::move(name)),
      library_exited_(host.engine()) {}

void Process::run(sim::Co<void> program) {
  CPE_EXPECTS(alive_);
  program_ = sim::launch(host_->engine(), std::move(program));
}

void Process::kill() noexcept {
  if (!alive_) return;
  alive_ = false;
  program_.abort();
  active_burst.reset();
}

Process::LibraryGuard::~LibraryGuard() {
  if (--p_->in_library_ == 0) p_->library_exited_.fire();
}

CpuScheduler::Compute Process::compute(double work) {
  return host_->cpu().compute(work, &active_burst);
}

Host::Host(sim::Engine& eng, net::Network& net, HostConfig cfg)
    : eng_(eng),
      net_(&net),
      cfg_(std::move(cfg)),
      node_(net.add_node(cfg_.name)),
      cpu_(eng, cfg_.speed) {}

Process& Host::create_process(std::string name) {
  processes_.push_back(
      std::make_unique<Process>(*this, next_pid_++, std::move(name)));
  return *processes_.back();
}

void Host::reap(Pid pid) {
  for (auto it = processes_.begin(); it != processes_.end(); ++it) {
    if ((*it)->pid() == pid) {
      (*it)->kill();
      processes_.erase(it);
      return;
    }
  }
}

std::unique_ptr<Process> Host::release(Pid pid) {
  for (auto it = processes_.begin(); it != processes_.end(); ++it) {
    if ((*it)->pid() == pid) {
      std::unique_ptr<Process> p = std::move(*it);
      processes_.erase(it);
      return p;
    }
  }
  return nullptr;
}

Process& Host::adopt(std::unique_ptr<Process> proc) {
  CPE_EXPECTS(proc != nullptr);
  proc->rehome(*this);
  processes_.push_back(std::move(proc));
  return *processes_.back();
}

Process* Host::find(Pid pid) noexcept {
  for (auto& p : processes_)
    if (p->pid() == pid) return p.get();
  return nullptr;
}

void Host::crash() {
  if (!up_) return;
  up_ = false;
  frozen_ = false;
  net_->ethernet().set_attached(node_, false);
  cpu_.set_frozen(true);
  for (auto& p : processes_) {
    if (p->crash_recoverable()) {
      // Strand, don't kill: the process image lives on the checkpoint
      // server, and a recovery driver will restart it elsewhere.  Detach its
      // burst so a later reboot of this host cannot resume stale work.
      if (p->active_burst && p->active_burst->scheduler != nullptr)
        p->active_burst->scheduler->detach(p->active_burst);
    } else {
      p->kill();
    }
  }
  notify(HostEvent::kCrash);
}

void Host::recover() {
  if (up_) return;
  up_ = true;
  // Reboot: zombies from the crash are gone; stranded crash-recoverable
  // processes remain until their recovery driver release()s them.
  std::erase_if(processes_, [](const auto& p) {
    return !p->alive() && !p->crash_recoverable();
  });
  cpu_.set_frozen(false);
  net_->ethernet().set_attached(node_, true);
  notify(HostEvent::kRecover);
}

void Host::freeze() {
  if (!up_ || frozen_) return;
  frozen_ = true;
  net_->ethernet().set_attached(node_, false);
  cpu_.set_frozen(true);
  notify(HostEvent::kFreeze);
}

void Host::unfreeze() {
  if (!frozen_) return;
  frozen_ = false;
  cpu_.set_frozen(false);
  net_->ethernet().set_attached(node_, true);
  notify(HostEvent::kUnfreeze);
}

void Host::notify(HostEvent ev) {
  // Copy: an observer may add observers (e.g. a recovery driver attaching).
  const auto obs = observers_;
  for (const auto& [id, o] : obs) o(*this, ev);
}

}  // namespace cpe::os
