/// Energy accounting: the meter's arithmetic, and the manager-level
/// behaviours the paper's motivation rests on (rotation costs energy,
/// hardware execution amortizes it, idle dedicated hardware leaks).

#include <gtest/gtest.h>

#include "rispp/rt/energy.hpp"
#include "rispp/rt/manager.hpp"

namespace {

using namespace rispp::rt;

TEST(EnergyMeter, ExecutionEnergy) {
  PowerModel pm;
  pm.core_mw = 200;
  pm.hw_mw = 260;
  EnergyMeter m(pm, /*clock_mhz=*/100.0);
  // 10 µs at 200 mW = 2000 nJ
  EXPECT_DOUBLE_EQ(m.execution_cost_nj(1000, /*hardware=*/false), 2000.0);
  m.add_execution_nj(m.execution_cost_nj(1000, /*hardware=*/false));
  EXPECT_DOUBLE_EQ(m.execution_nj(), 2000.0);
  // + 10 µs at 260 mW
  m.add_execution_nj(m.execution_cost_nj(1000, /*hardware=*/true));
  EXPECT_DOUBLE_EQ(m.execution_nj(), 2000.0 + 2600.0);
}

TEST(EnergyMeter, RotationEnergy) {
  PowerModel pm;
  pm.reconfig_mw = 90;
  EnergyMeter m(pm, 100.0);
  m.add_rotation(100000);  // 1000 µs at 90 mW = 90,000 nJ
  EXPECT_DOUBLE_EQ(m.rotation_nj(), 90000.0);
}

TEST(EnergyMeter, LeakageIntegratesOverTime) {
  PowerModel pm;
  pm.leak_mw_per_kslice = 10.0;
  EnergyMeter m(pm, 100.0);
  m.advance_leakage(0, 2000);       // establishes t=0
  m.advance_leakage(100000, 2000);  // 1000 µs at 2 kslices·10 mW = 20,000 nJ
  EXPECT_DOUBLE_EQ(m.leakage_nj(), 20000.0);
  // Repeated timestamps and non-monotone calls are harmless.
  m.advance_leakage(100000, 2000);
  m.advance_leakage(50000, 9999);
  EXPECT_DOUBLE_EQ(m.leakage_nj(), 20000.0);
}

TEST(EnergyMeter, TotalSumsComponents) {
  EnergyMeter m(PowerModel{}, 100.0);
  m.add_execution_nj(m.execution_cost_nj(100, true));
  m.add_rotation(100);
  m.advance_leakage(0, 0);
  m.advance_leakage(1000, 1000);
  EXPECT_DOUBLE_EQ(m.total_nj(),
                   m.execution_nj() + m.rotation_nj() + m.leakage_nj());
}

TEST(ManagerEnergy, SoftwareExecutionChargesCorePower) {
  const auto lib = rispp::isa::SiLibrary::h264();
  RtConfig cfg;
  cfg.clock_mhz = 100.0;
  RisppManager mgr(borrow(lib), cfg);
  mgr.execute(lib.index_of("SATD_4x4"), 0);
  // 544 cycles = 5.44 µs at 200 mW = 1088 nJ.
  EXPECT_NEAR(mgr.energy().execution_nj(), 1088.0, 1e-9);
  EXPECT_DOUBLE_EQ(mgr.energy().rotation_nj(), 0.0);
}

TEST(ManagerEnergy, RotationChargesPortPower) {
  const auto lib = rispp::isa::SiLibrary::h264();
  RtConfig cfg;
  RisppManager mgr(borrow(lib), cfg);
  mgr.forecast(lib.index_of("HT_2x2"), 100, 1.0, 0);  // rotates 1 Transform
  // Transform: 857.63 µs at 90 mW ≈ 77,187 nJ.
  EXPECT_NEAR(mgr.energy().rotation_nj(), 77187.0, 100.0);
}

TEST(ManagerEnergy, HardwareAmortizesRotationEnergy) {
  // After enough hardware executions, total energy per execution drops
  // below the software per-execution energy — the FDF offset's premise.
  const auto lib = rispp::isa::SiLibrary::h264();
  const auto satd = lib.index_of("SATD_4x4");
  RtConfig cfg;
  RisppManager mgr(borrow(lib), cfg);
  mgr.forecast(satd, 10000, 1.0, 0);
  Cycle now = 1'000'000;  // rotations done
  const int n = 5000;
  for (int i = 0; i < n; ++i) now += mgr.execute(satd, now).cycles;
  const double per_exec = mgr.energy().total_nj() / n;
  const double sw_per_exec = 544 / cfg.clock_mhz * cfg.power.core_mw;
  EXPECT_LT(per_exec, sw_per_exec);
}

TEST(ManagerEnergy, LeakageGrowsWithLoadedAtoms) {
  const auto lib = rispp::isa::SiLibrary::h264();
  RtConfig cfg;
  RisppManager mgr(borrow(lib), cfg);
  EXPECT_EQ(mgr.loaded_slices(), 0u);
  mgr.forecast(lib.index_of("SATD_4x4"), 1000, 1.0, 0);
  mgr.poll(500000);
  // QuadSub + Pack + Transform + SATD = 352 + 406 + 517 + 407 slices.
  EXPECT_EQ(mgr.loaded_slices(), 1682u);
  const auto before = mgr.energy().leakage_nj();
  mgr.poll(1'500'000);
  EXPECT_GT(mgr.energy().leakage_nj(), before);
}

}  // namespace
