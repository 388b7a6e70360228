#include "apps/opt/spmd_opt.hpp"

#include "adm/partition.hpp"

namespace cpe::opt {

SpmdOpt::SpmdOpt(upvm::Upvm& upvm, OptConfig cfg)
    : upvm_(&upvm),
      cfg_(std::move(cfg)),
      kernel_(cfg_.real_math, cfg_.workload),
      slaves_ready_(upvm.vm().engine()) {
  CPE_EXPECTS(cfg_.nslaves >= 1);
}

sim::Co<OptResult> SpmdOpt::run() {
  upvm_->run_spmd(
      [this](upvm::Ulp& u) -> sim::Co<void> { co_await ulp_main(u); },
      cfg_.nslaves + 1);
  co_await upvm_->wait_all_ulps();
  co_return result_;
}

sim::Co<void> SpmdOpt::ulp_main(upvm::Ulp& u) {
  if (u.inst() == 0)
    co_await master_main(u);
  else
    co_await slave_main(u);
}

sim::Co<void> SpmdOpt::master_main(upvm::Ulp& u) {
  sim::Engine& eng = upvm_->vm().engine();
  result_.start_time = eng.now();

  {
    sim::Rng rng(cfg_.seed);
    const ExemplarSet data =
        ExemplarSet::synthesize_bytes(cfg_.data_bytes, rng);
    result_.data_checksum = data.checksum();
    u.set_data_bytes(data.bytes() + Network::bytes());

    // Pack each share straight from the set's wire image.
    const std::vector<std::size_t> shares = adm::equal_shares(
        data.size(), static_cast<std::size_t>(cfg_.nslaves));
    std::size_t first = 0;
    for (int s = 0; s < cfg_.nslaves; ++s) {
      const std::size_t count = shares[static_cast<std::size_t>(s)];
      u.initsend().pk_float(data.to_wire(first, count));
      first += count;
      co_await u.send(slave_inst(s), kTagData);
    }
  }

  Network net(cfg_.seed);
  Network::CgState cg;
  std::vector<float> grad(Network::weight_count());
  std::vector<float> partial(Network::weight_count());

  for (int iter = 0; iter < cfg_.iterations; ++iter) {
    for (int s = 0; s < cfg_.nslaves; ++s) {
      u.initsend().pk_float(net.weights());
      co_await u.send(slave_inst(s), kTagNet);
    }
    std::fill(grad.begin(), grad.end(), 0.0f);
    for (int s = 0; s < cfg_.nslaves; ++s) {
      co_await u.recv(-1, kTagGrad);
      u.rbuf().upk_float(partial);
      for (std::size_t i = 0; i < grad.size(); ++i) grad[i] += partial[i];
    }
    co_await u.compute(cfg_.workload.apply_seconds);
    net.apply_cg_step(grad, cg);
    ++result_.iterations_done;
  }

  for (int s = 0; s < cfg_.nslaves; ++s) {
    u.initsend().pk_int(0);
    co_await u.send(slave_inst(s), kTagDone);
  }
  result_.end_time = eng.now();
  result_.net_checksum = net.checksum();
}

sim::Co<void> SpmdOpt::slave_main(upvm::Ulp& u) {
  co_await u.recv(0, kTagData);
  ExemplarSet::Wire wire(u.rbuf().next_count());
  u.rbuf().upk_float(wire);
  ExemplarSet mine = ExemplarSet::from_wire(std::move(wire));
  u.set_data_bytes(mine.bytes());
  u.set_heap_bytes(2 * Network::bytes());
  if (++slaves_ready_count_ >= cfg_.nslaves) slaves_ready_.fire();

  std::vector<float> grad(Network::weight_count());
  std::vector<float> net_w(Network::weight_count());
  for (;;) {
    pvm::Message m = co_await u.recv(-1, -1);
    if (m.tag == kTagDone) break;
    CPE_ASSERT(m.tag == kTagNet);
    u.rbuf().upk_float(net_w);
    const Network net{std::vector<float>(net_w)};
    std::fill(grad.begin(), grad.end(), 0.0f);
    const double work = kernel_.partial(net, mine, grad);
    co_await u.compute(work);
    u.initsend().pk_float(grad);
    co_await u.send(0, kTagGrad);
  }
}

}  // namespace cpe::opt
