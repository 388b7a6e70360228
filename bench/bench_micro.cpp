// Ablation A6 — micro-benchmarks of the substrate (google-benchmark).
//
// These measure the *implementation* (host-machine performance of the
// simulator and library), not 1994 virtual time: event throughput of the
// DES engine, pack/unpack rates of the message buffers, mailbox matching,
// and end-to-end simulated message round-trips per host-second.
#include <benchmark/benchmark.h>

#include "apps/opt/network.hpp"
#include "pvm/system.hpp"

namespace {
using namespace cpe;

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i)
      eng.schedule_at(static_cast<double>(i % 100), [] {});
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(10'000)->Arg(100'000);

void BM_CoroutineSpawnResume(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      auto body = [](sim::Engine* e) -> sim::Co<void> {
        co_await sim::Delay(*e, 1.0);
        co_await sim::Delay(*e, 1.0);
      };
      sim::spawn(eng, body(&eng));
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoroutineSpawnResume)->Arg(1'000)->Arg(10'000);

void BM_BufferPackDoubleXdr(benchmark::State& state) {
  const std::vector<double> data(static_cast<std::size_t>(state.range(0)),
                                 3.14);
  for (auto _ : state) {
    pvm::Buffer b(pvm::Encoding::kDefault);
    b.pk_double(data);
    benchmark::DoNotOptimize(b.bytes());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size() * 8));
}
BENCHMARK(BM_BufferPackDoubleXdr)->Arg(1'000)->Arg(100'000);

void BM_BufferPackDoubleRaw(benchmark::State& state) {
  const std::vector<double> data(static_cast<std::size_t>(state.range(0)),
                                 3.14);
  for (auto _ : state) {
    pvm::Buffer b(pvm::Encoding::kRaw);
    b.pk_double(data);
    benchmark::DoNotOptimize(b.bytes());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size() * 8));
}
BENCHMARK(BM_BufferPackDoubleRaw)->Arg(1'000)->Arg(100'000);

void BM_BufferRoundTripFloat(benchmark::State& state) {
  const std::vector<float> data(static_cast<std::size_t>(state.range(0)),
                                1.5f);
  std::vector<float> out(data.size());
  for (auto _ : state) {
    pvm::Buffer b;
    b.pk_float(data);
    b.upk_float(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size() * 4));
}
// 2.6 M floats are 10.4 MB, half of the paper's largest Opt data set.
BENCHMARK(BM_BufferRoundTripFloat)->Arg(10'000)->Arg(2'600'000);

void BM_MailboxMatch(benchmark::State& state) {
  sim::Engine eng;
  for (auto _ : state) {
    pvm::Mailbox box(eng);
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i)
      box.push(pvm::Message(pvm::Tid::make(0, 1), pvm::Tid::make(1, 1),
                            i % 7, std::make_shared<const pvm::Buffer>()));
    int taken = 0;
    while (box.try_take(pvm::kAny, 3)) ++taken;
    benchmark::DoNotOptimize(taken);
    while (box.try_take(pvm::kAny, pvm::kAny)) ++taken;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MailboxMatch)->Arg(1'000);

void BM_SimulatedPingPong(benchmark::State& state) {
  // How many simulated PVM round-trips per wall-second the library sustains.
  for (auto _ : state) {
    sim::Engine eng;
    net::Network net(eng);
    os::Host h1(eng, net, os::HostConfig("h1"));
    os::Host h2(eng, net, os::HostConfig("h2"));
    pvm::PvmSystem vm(eng, net);
    vm.add_host(h1);
    vm.add_host(h2);
    const int rounds = static_cast<int>(state.range(0));
    vm.register_program("ping", [rounds](pvm::Task& t) -> sim::Co<void> {
      for (int i = 0; i < rounds; ++i) {
        t.initsend().pk_int(i);
        co_await t.send(pvm::Tid::make(1, 1), 1);
        co_await t.recv(pvm::kAny, 2);
      }
    });
    vm.register_program("pong", [rounds](pvm::Task& t) -> sim::Co<void> {
      for (int i = 0; i < rounds; ++i) {
        pvm::Message m = co_await t.recv(pvm::kAny, 1);
        t.initsend().pk_int(i);
        co_await t.send(m.src, 2);
      }
    });
    auto body = [&]() -> sim::Proc {
      co_await vm.spawn("pong", 1, "h2");
      co_await vm.spawn("ping", 1, "h1");
    };
    sim::spawn(eng, body());
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatedPingPong)->Arg(200);

void BM_ExemplarSynthesize(benchmark::State& state) {
  // 40,000 exemplars are 10.4 MB: half of the paper's largest (20.8 MB) set.
  sim::Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const opt::ExemplarSet set = opt::ExemplarSet::synthesize(n, rng);
    benchmark::DoNotOptimize(set.image().data.get());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(n * calib::OptWorkload::exemplar_bytes));
}
BENCHMARK(BM_ExemplarSynthesize)->Arg(40'000);

void BM_ExemplarChecksum(benchmark::State& state) {
  // checksum() of a set that has not hashed its bytes yet, as a slave's
  // adopted slice has not: decoding and hashing 10.4 MB of wire image.
  sim::Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const opt::ExemplarSet set = opt::ExemplarSet::synthesize(n, rng);
  for (auto _ : state) {
    const opt::ExemplarSet adopted = opt::ExemplarSet::adopt(set.image());
    benchmark::DoNotOptimize(adopted.checksum());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExemplarChecksum)->Arg(40'000);

void BM_OptGradientRealMath(benchmark::State& state) {
  sim::Rng rng(1);
  const opt::ExemplarSet set =
      opt::ExemplarSet::synthesize(static_cast<std::size_t>(state.range(0)),
                                   rng);
  const opt::Network net(1);
  std::vector<float> grad(opt::Network::weight_count());
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), 0.0f);
    benchmark::DoNotOptimize(net.accumulate_gradient(set, grad));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OptGradientRealMath)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
