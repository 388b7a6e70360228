// Figure 2 — ULPs and their unique virtual-address regions (§2.2).
//
// The paper's example: an application decomposed into 5 ULPs across 3
// processes, one per host; if ULP4 occupies region V1 on host3, V1 is
// reserved for ULP4 in every process.  This bench builds exactly that
// configuration, prints the map, migrates ULP4, and shows it landing in the
// same region — no pointer fix-up needed.  It exits nonzero unless ULP4 kept
// its region, the regions stayed disjoint, and the trace audit is clean.
#include "bench/bench_util.hpp"

int main() {
  using namespace cpe;
  bench::print_header(
      "Figure 2: ULP virtual-address regions, 5 ULPs across 3 processes",
      "\"if ULP4 is allocated a virtual address region V1 on host3, then V1 "
      "is also reserved for ULP4 on all the other hosts\"");

  sim::Engine eng;
  net::Network net(eng);
  os::Host host1(eng, net, os::HostConfig("host1", "HPPA", 1.0));
  os::Host host2(eng, net, os::HostConfig("host2", "HPPA", 1.0));
  os::Host host3(eng, net, os::HostConfig("host3", "HPPA", 1.0));
  pvm::PvmSystem vm(eng, net);
  vm.add_host(host1);
  vm.add_host(host2);
  vm.add_host(host3);
  upvm::Upvm upvm(vm);
  sim::spawn(eng, upvm.start());
  eng.run();

  upvm.run_spmd(
      [](upvm::Ulp& u) -> sim::Co<void> {
        u.set_data_bytes(200'000 + 50'000 * static_cast<std::size_t>(u.inst()));
        co_await u.compute(1000.0);
      },
      5);
  eng.run_until(eng.now() + 1.0);
  std::printf("%s\n", upvm.format_address_map().c_str());

  const upvm::VaRegion before = upvm.ulp(4)->region();
  auto driver = [&]() -> sim::Proc {
    co_await upvm.migrate_ulp(4, host3);
  };
  sim::spawn(eng, driver());
  eng.run_until(eng.now() + 30.0);

  std::printf("After migrating ULP4 (%s -> host3):\n%s\n", "host2",
              upvm.format_address_map().c_str());
  const upvm::VaRegion after = upvm.ulp(4)->region();
  const bool kept = before.base == after.base;
  const bool disjoint = upvm.address_map().disjoint();
  std::printf(
      "  ULP4 region before: [%#zx, %#zx)  after: [%#zx, %#zx)  — %s\n",
      static_cast<std::size_t>(before.base),
      static_cast<std::size_t>(before.end()),
      static_cast<std::size_t>(after.base),
      static_cast<std::size_t>(after.end()),
      kept ? "identical (no pointer fix-up)" : "DIFFERENT (bug!)");
  std::printf("  Regions pairwise disjoint: %s\n",
              disjoint ? "yes" : "NO (bug!)");
  std::vector<obs::SpanRecord> spans;
  bench::collect_spans(vm, spans);
  const bool audit_ok = bench::audit_spans(spans);
  return audit_ok && kept && disjoint ? 0 : 1;
}
