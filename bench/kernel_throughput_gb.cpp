/// Wall-clock microbenchmarks (google-benchmark) of the functional
/// substrates: the H.264 Atom-composed kernels vs their naive references,
/// AES block encryption, and the run-time system's hot paths (Molecule
/// selection, SI dispatch). These are host-machine timings — the paper's
/// cycle numbers come from the model benches, not from here.

#include <benchmark/benchmark.h>

#include "rispp/aes/aes128.hpp"
#include "rispp/h264/kernels.hpp"
#include "rispp/h264/reference.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/util/rng.hpp"

namespace {

rispp::h264::Block4x4 random_block(rispp::util::Xoshiro256& rng) {
  rispp::h264::Block4x4 b{};
  for (auto& v : b) v = static_cast<std::int32_t>(rng.range(0, 255));
  return b;
}

void BM_Satd4x4_AtomComposed(benchmark::State& state) {
  rispp::util::Xoshiro256 rng(1);
  const auto a = random_block(rng), b = random_block(rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(rispp::h264::satd_4x4(a, b));
}
BENCHMARK(BM_Satd4x4_AtomComposed);

void BM_Satd4x4_Reference(benchmark::State& state) {
  rispp::util::Xoshiro256 rng(1);
  const auto a = random_block(rng), b = random_block(rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(rispp::h264::ref::satd_4x4(a, b));
}
BENCHMARK(BM_Satd4x4_Reference);

void BM_Dct4x4(benchmark::State& state) {
  rispp::util::Xoshiro256 rng(2);
  const auto a = random_block(rng);
  for (auto _ : state) benchmark::DoNotOptimize(rispp::h264::dct_4x4(a));
}
BENCHMARK(BM_Dct4x4);

void BM_AesEncryptBlock(benchmark::State& state) {
  const rispp::aes::Key key{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  const auto ks = rispp::aes::expand_key(key);
  rispp::aes::Block b{};
  for (auto _ : state) {
    b = rispp::aes::encrypt_block(b, ks);
    benchmark::DoNotOptimize(b);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_GreedySelection(benchmark::State& state) {
  const auto lib = rispp::isa::SiLibrary::h264();
  const rispp::rt::GreedySelector sel(lib);
  std::vector<rispp::rt::ForecastDemand> demands;
  for (std::size_t s = 0; s < lib.size(); ++s)
    demands.push_back({s, 100.0 * static_cast<double>(s + 1), 1.0, -1});
  const auto budget = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(sel.plan(demands, budget));
}
BENCHMARK(BM_GreedySelection)->Arg(4)->Arg(8)->Arg(16);

void BM_SiDispatch(benchmark::State& state) {
  // Steady-state execute(): the per-invocation overhead of the run-time
  // manager once the molecule is loaded.
  const auto lib = rispp::isa::SiLibrary::h264();
  rispp::rt::RtConfig cfg;
  cfg.atom_containers = 4;
  rispp::rt::RisppManager mgr(borrow(lib), cfg);
  const auto satd = lib.index_of("SATD_4x4");
  mgr.forecast(satd, 1e6, 1.0, 0);
  rispp::rt::Cycle now = 1'000'000;
  for (auto _ : state) {
    const auto res = mgr.execute(satd, now);
    now += res.cycles;
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_SiDispatch);

}  // namespace

BENCHMARK_MAIN();
