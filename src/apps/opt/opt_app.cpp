#include "apps/opt/opt_app.hpp"

#include "adm/partition.hpp"

namespace cpe::opt {

PvmOpt::PvmOpt(pvm::PvmSystem& vm, OptConfig cfg)
    : vm_(&vm),
      cfg_(std::move(cfg)),
      kernel_(cfg_.real_math, cfg_.workload),
      slaves_ready_(vm.engine()),
      finished_(vm.engine()) {
  CPE_EXPECTS(cfg_.nslaves >= 1);
  CPE_EXPECTS(static_cast<int>(cfg_.slave_hosts.size()) == cfg_.nslaves);
  vm.register_program(
      "opt_master", [this](pvm::Task& t) -> sim::Co<void> {
        co_await master_main(t);
      });
  vm.register_program("opt_slave", [this](pvm::Task& t) -> sim::Co<void> {
    co_await slave_main(t);
  });
}

sim::Co<OptResult> PvmOpt::run() {
  std::vector<pvm::Tid> tids =
      co_await vm_->spawn("opt_master", 1, cfg_.master_host);
  master_tid_ = tids[0];
  while (!done_) co_await finished_.wait();
  co_return result_;
}

sim::Co<void> PvmOpt::master_main(pvm::Task& t) {
  sim::Engine& eng = vm_->engine();

  // Spawn the slaves where the configuration says (paper: one per host,
  // master co-located with slave 1).
  for (int s = 0; s < cfg_.nslaves; ++s) {
    std::vector<pvm::Tid> kid = co_await t.spawn(
        "opt_slave", 1, cfg_.slave_hosts[static_cast<std::size_t>(s)]);
    slave_tids_.push_back(kid[0]);
  }
  // The application clock starts once the VPs exist (UPVM's containers
  // pre-exist, so including fork/exec here would skew the Table 3
  // comparison).
  result_.start_time = eng.now();

  // Build the training set and distribute it equally (§4.0), packing each
  // share by reference to the set's wire image.
  {
    sim::Rng rng(cfg_.seed);
    const ExemplarSet data =
        ExemplarSet::synthesize_bytes(cfg_.data_bytes, rng);
    result_.data_checksum = data.checksum();
    t.process().image().data_bytes = data.bytes() + Network::bytes();
    const std::vector<std::size_t> shares = adm::equal_shares(
        data.size(), static_cast<std::size_t>(cfg_.nslaves));
    std::size_t first = 0;
    for (int s = 0; s < cfg_.nslaves; ++s) {
      const std::size_t count = shares[static_cast<std::size_t>(s)];
      t.initsend().pk_float_image(data.image(first, count));
      first += count;
      co_await t.send(slave_tids_[static_cast<std::size_t>(s)], kTagData);
    }
  }

  Network net(cfg_.seed);
  Network::CgState cg;
  std::vector<float> grad(Network::weight_count());
  std::vector<float> partial(Network::weight_count());

  for (int iter = 0; iter < cfg_.iterations; ++iter) {
    // Broadcast the current network.
    t.initsend().pk_float(net.weights());
    co_await t.mcast(slave_tids_, kTagNet);
    // Gather and combine partial gradients.
    std::fill(grad.begin(), grad.end(), 0.0f);
    for (int s = 0; s < cfg_.nslaves; ++s) {
      co_await t.recv(pvm::kAny, kTagGrad);
      t.rbuf().upk_float(partial);
      for (std::size_t i = 0; i < grad.size(); ++i) grad[i] += partial[i];
    }
    // Apply the conjugate-gradient update.
    co_await t.compute(cfg_.workload.apply_seconds);
    net.apply_cg_step(grad, cg);
    ++result_.iterations_done;
  }

  t.initsend().pk_int(0);
  co_await t.mcast(slave_tids_, kTagDone);
  result_.end_time = eng.now();
  result_.net_checksum = net.checksum();
  done_ = true;
  finished_.fire();
}

sim::Co<void> PvmOpt::slave_main(pvm::Task& t) {
  // Receive my slice of the exemplars.
  co_await t.recv(pvm::kAny, kTagData);
  ExemplarSet mine = ExemplarSet::adopt(t.rbuf().upk_float_image());
  // The process image now holds the slice plus net + gradient buffers —
  // what an MPVM migration must move.
  t.process().image().data_bytes = mine.bytes();
  t.process().image().heap_bytes = 2 * Network::bytes();

  if (++slaves_ready_count_ >= cfg_.nslaves) slaves_ready_.fire();

  std::vector<float> grad(Network::weight_count());
  std::vector<float> net_w(Network::weight_count());
  for (;;) {
    pvm::Message m = co_await t.recv(pvm::kAny, pvm::kAny);
    if (m.tag == kTagDone) break;
    CPE_ASSERT(m.tag == kTagNet);
    t.rbuf().upk_float(net_w);
    const Network net{std::vector<float>(net_w)};
    std::fill(grad.begin(), grad.end(), 0.0f);
    const double work = kernel_.partial(net, mine, grad);
    co_await t.compute(work);
    t.initsend().pk_float(grad);
    co_await t.send(m.src, kTagGrad);
  }
}

}  // namespace cpe::opt
