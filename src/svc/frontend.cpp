#include "svc/frontend.hpp"

#include <string>
#include <utility>

#include "sim/assert.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"

namespace cpe::svc {
namespace {

/// The frontend task exists to be an addressable completion endpoint; the
/// actual work (arrival pump, dispatch, timeout bookkeeping) runs as engine
/// events on the owning Frontend object.  kTagPark is never sent.
sim::Co<void> frontend_main(pvm::Task& self) {
  (void)co_await self.recv(pvm::kAny, kTagPark);
}

/// One serving loop: recv a request, charge its queue wait, compute its
/// demand (migratable mid-compute — a freeze window lands here as `stall`),
/// reply with a control-tagged completion that continues the request trace.
sim::Co<void> worker_main(pvm::Task& self) {
  obs::Histogram& queue_wait = self.system().metrics().histogram(
      "svc.queue_wait");
  obs::SpanTracer& tracer = self.system().spans();
  sim::Engine& eng = self.system().engine();
  for (;;) {
    pvm::Message m = co_await self.recv(pvm::kAny, kTagRequest);
    pvm::Buffer b(*m.body);
    const std::int64_t id = b.upk_long();
    const double issued_at = b.upk_double();
    const double demand = b.upk_double();
    const bool sampled = b.upk_int() != 0;

    const sim::Time t0 = eng.now();
    queue_wait.record(t0 - issued_at);

    obs::SpanId serve = 0;
    if (sampled && self.trace_context().valid()) {
      serve = tracer.begin_span(self.trace_context(), "svc.serve",
                                self.pvmd().host().name(), self.tid().raw());
      tracer.annotate(serve, "queue_wait_s", std::to_string(t0 - issued_at));
    }

    co_await self.compute(demand);

    if (serve != 0) {
      // Wall time beyond the pure demand: CPU contention from owner
      // reclamation plus any migration freeze this request overlapped.
      tracer.annotate(serve, "stall_s",
                      std::to_string((eng.now() - t0) - demand));
      tracer.end_span(serve, obs::SpanStatus::kOk);
      self.set_trace_context(tracer.context_of(serve));
    }
    pvm::Buffer reply;
    reply.pk_long(id);
    self.runtime_send(m.src, kTagComplete, std::move(reply));
    self.clear_trace_context();
  }
}

}  // namespace

const char* to_string(RouteKind k) noexcept {
  switch (k) {
    case RouteKind::kRoundRobin:
      return "round_robin";
    case RouteKind::kLeastOutstanding:
      return "least_outstanding";
  }
  return "?";
}

Frontend::Frontend(pvm::PvmSystem& vm, std::unique_ptr<ArrivalProcess> arrivals,
                   FrontendOptions opts)
    : vm_(&vm),
      arrivals_(std::move(arrivals)),
      opts_(opts),
      rng_(opts.seed),
      pad_(opts.request_bytes) {
  CPE_EXPECTS(arrivals_ != nullptr &&
              "svc::Frontend requires an arrival process");
  CPE_EXPECTS(opts.timeout > 0 && "svc::Frontend timeout must be > 0");
  CPE_EXPECTS(opts.service_demand > 0 &&
              "svc::Frontend mean service demand must be > 0");
  if (!vm.has_program("svc.frontend")) {
    vm.register_program("svc.frontend", frontend_main);
  }
  if (!vm.has_program("svc.worker")) {
    vm.register_program("svc.worker", worker_main);
  }
  obs::MetricsRegistry& reg = vm.metrics();
  latency_ = &reg.histogram("svc.latency");
  (void)reg.histogram("svc.queue_wait");  // exists before the first request
  c_issued_ = &reg.counter("svc.issued");
  c_completed_ = &reg.counter("svc.completed");
  c_timeouts_ = &reg.counter("svc.timeouts");
  c_rejected_ = &reg.counter("svc.rejected");
  c_late_ = &reg.counter("svc.late");
  inflight_ = &reg.gauge("svc.requests_inflight");
}

void Frontend::launch(os::Host& host, std::vector<os::Host*> worker_hosts,
                      sim::Time horizon) {
  CPE_EXPECTS(!worker_hosts.empty() &&
              "svc::Frontend::launch needs at least one worker host");
  sim::spawn(vm_->engine(), init(&host, std::move(worker_hosts), horizon));
}

sim::Co<void> Frontend::init(os::Host* host,
                             std::vector<os::Host*> worker_hosts,
                             sim::Time horizon) {
  std::vector<pvm::Tid> ft = co_await vm_->spawn("svc.frontend", 1,
                                                 host->name());
  ftid_ = ft.at(0);
  pvm::Task* ftask = vm_->find_logical(ftid_);
  CPE_EXPECTS(ftask != nullptr);
  ftask->set_control_handler(
      kTagComplete, [this](pvm::Message m) { on_complete(std::move(m)); });

  for (os::Host* wh : worker_hosts) {
    std::vector<pvm::Tid> wt = co_await vm_->spawn("svc.worker", 1,
                                                   wh->name());
    pvm::Task* wtask = vm_->find_logical(wt.at(0));
    CPE_EXPECTS(wtask != nullptr);
    wtask->process().image().data_bytes = opts_.worker_image_bytes;
    worker_tids_.push_back(wt.at(0));
    outstanding_.push_back(0);
  }
  pump(horizon);
}

void Frontend::pump(sim::Time horizon) {
  sim::Engine& eng = vm_->engine();
  const sim::Time t = eng.now() + arrivals_->next_gap(eng.now());
  if (t > horizon) return;
  // One pooled event per request; 16-byte capture stays in the inline slot.
  (void)eng.schedule_at(t, [this, horizon] {
    dispatch_one();
    pump(horizon);
  });
}

bool Frontend::worker_live(std::size_t i) const {
  const pvm::Task* t = vm_->find_logical(worker_tids_[i]);
  return t != nullptr && !t->exited() && t->pvmd().host().up();
}

long Frontend::pick_worker() {
  const std::size_t n = worker_tids_.size();
  if (n == 0) return -1;
  switch (opts_.route) {
    case RouteKind::kRoundRobin: {
      const std::size_t from = rr_++ % n;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (from + k) % n;
        if (worker_live(i)) return static_cast<long>(i);
      }
      return -1;
    }
    case RouteKind::kLeastOutstanding: {
      long best = -1;
      for (std::size_t i = 0; i < n; ++i) {
        if (!worker_live(i)) continue;
        if (best < 0 ||
            outstanding_[i] < outstanding_[static_cast<std::size_t>(best)]) {
          best = static_cast<long>(i);
        }
      }
      return best;
    }
  }
  return -1;
}

void Frontend::dispatch_one() {
  const std::uint64_t id = next_id_++;
  issued_++;
  c_issued_->inc();
  const long w = pick_worker();
  if (w < 0) {
    rejected_++;
    c_rejected_->inc();
    return;
  }

  sim::Engine& eng = vm_->engine();
  obs::SpanTracer& tracer = vm_->spans();
  pvm::Task* ftask = vm_->find_logical(ftid_);
  CPE_EXPECTS(ftask != nullptr);

  Pending p;
  p.worker = static_cast<std::size_t>(w);
  p.issued_at = eng.now();
  const double demand = rng_.exponential(opts_.service_demand);
  const bool sampled =
      opts_.sample_every > 0 && id % opts_.sample_every == 0;
  if (sampled) {
    const obs::TraceContext root = tracer.start_trace();
    p.span = tracer.begin_span(root, "svc.request",
                               ftask->pvmd().host().name(), ftid_.raw());
    tracer.annotate(p.span, "route", to_string(opts_.route));
  }

  pvm::Buffer body;
  body.pk_long(static_cast<std::int64_t>(id));
  body.pk_double(p.issued_at);
  body.pk_double(demand);
  body.pk_int(p.span != 0 ? 1 : 0);
  if (!pad_.empty()) body.pk_byte(pad_);

  // Stamp the request's context onto the message for exactly its send; the
  // frontend task itself stays untraced between requests.
  const obs::TraceContext saved = ftask->trace_context();
  if (p.span != 0) {
    ftask->set_trace_context(tracer.context_of(p.span));
  } else {
    ftask->clear_trace_context();
  }
  ftask->runtime_send(worker_tids_[p.worker], kTagRequest, std::move(body));
  ftask->set_trace_context(saved);

  p.timeout_ev =
      eng.schedule_in(opts_.timeout, [this, id] { on_timeout(id); });
  outstanding_[p.worker]++;
  inflight_->add(1);
  pending_.emplace(id, p);
}

void Frontend::retire(std::unordered_map<std::uint64_t, Pending>::iterator it) {
  outstanding_[it->second.worker]--;
  inflight_->add(-1);
  pending_.erase(it);
}

void Frontend::on_complete(pvm::Message m) {
  pvm::Buffer b(*m.body);
  const auto id = static_cast<std::uint64_t>(b.upk_long());
  const auto it = pending_.find(id);
  if (it == pending_.end()) {
    // The timeout already retired this request; the straggling completion
    // changes nothing (exactly-once resolution).
    late_++;
    c_late_->inc();
    return;
  }
  vm_->engine().cancel(it->second.timeout_ev);
  const double latency = vm_->engine().now() - it->second.issued_at;
  latency_->record(latency);
  completed_++;
  c_completed_->inc();
  if (it->second.span != 0) {
    obs::SpanTracer& tracer = vm_->spans();
    tracer.annotate(it->second.span, "latency_s", std::to_string(latency));
    tracer.end_span(it->second.span, obs::SpanStatus::kOk);
  }
  retire(it);
}

void Frontend::on_timeout(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  // Censored observation: record the bound, not nothing — a policy that
  // lets requests die must not launder its tail out of svc.latency.
  latency_->record(opts_.timeout);
  timeouts_++;
  c_timeouts_->inc();
  if (it->second.span != 0) {
    obs::SpanTracer& tracer = vm_->spans();
    tracer.annotate(it->second.span, "timeout", "1");
    tracer.end_span(it->second.span, obs::SpanStatus::kAborted);
  }
  retire(it);
}

double Frontend::outstanding_on(const os::Host& host) const {
  double sum = 0;
  for (std::size_t i = 0; i < worker_tids_.size(); ++i) {
    if (outstanding_[i] == 0) continue;
    const pvm::Task* t = vm_->find_logical(worker_tids_[i]);
    if (t != nullptr && &t->pvmd().host() == &host) sum += outstanding_[i];
  }
  return sum;
}

void track_service_metrics(obs::Analytics& an) {
  an.track_histogram("svc.latency");
  an.track_histogram("svc.queue_wait");
  an.track_counter("svc.issued");
  an.track_counter("svc.completed");
  an.track_counter("svc.timeouts");
  an.track_counter("svc.rejected");
  an.track_gauge("svc.requests_inflight");
}

}  // namespace cpe::svc
