#include <gtest/gtest.h>

#include "rispp/hw/area_model.hpp"
#include "rispp/hw/atom_hw.hpp"
#include "rispp/hw/reconfig_port.hpp"
#include "rispp/util/error.hpp"

namespace {

using namespace rispp::hw;
using rispp::util::PreconditionError;

TEST(AtomHw, Table1Contents) {
  const auto atoms = table1_atoms();
  ASSERT_EQ(atoms.size(), 4u);
  const auto& transform = find_atom(atoms, "Transform");
  EXPECT_EQ(transform.slices, 517u);
  EXPECT_EQ(transform.luts, 1034u);
  EXPECT_EQ(transform.bitstream_bytes, 59353u);
  const auto& pack = find_atom(atoms, "Pack");
  // Pack's AC covers a BlockRAM row → clearly the biggest bitstream.
  for (const auto& a : atoms) {
    if (a.name != "Pack") {
      EXPECT_GT(pack.bitstream_bytes, a.bitstream_bytes);
    }
  }
}

TEST(AtomHw, Table1Utilization) {
  const auto atoms = table1_atoms();
  // Paper Table 1: 50.5 / 39.5 / 39.7 / 34.2 percent of a 1024-slice AC.
  // The paper's own slice counts and percentages disagree by up to ~0.3 pp
  // (407/1024 = 39.75 %, printed as 39.5 %), so the tolerance is 1 pp.
  EXPECT_NEAR(find_atom(atoms, "Transform").utilization(), 0.505, 0.01);
  EXPECT_NEAR(find_atom(atoms, "SATD").utilization(), 0.395, 0.01);
  EXPECT_NEAR(find_atom(atoms, "Pack").utilization(), 0.397, 0.01);
  EXPECT_NEAR(find_atom(atoms, "QuadSub").utilization(), 0.342, 0.01);
}

TEST(AtomHw, UnknownAtomThrows) {
  const auto atoms = table1_atoms();
  EXPECT_THROW(find_atom(atoms, "Bogus"), PreconditionError);
}

TEST(ReconfigPort, ReproducesTable1RotationTimes) {
  const ReconfigPort port;  // default = Table-1 back-solved rate
  const auto atoms = table1_atoms();
  // Paper Table 1 rotation times in µs, within rounding tolerance.
  EXPECT_NEAR(port.rotation_time_us(find_atom(atoms, "Transform").bitstream_bytes),
              857.63, 0.05);
  EXPECT_NEAR(port.rotation_time_us(find_atom(atoms, "SATD").bitstream_bytes),
              840.11, 0.05);
  EXPECT_NEAR(port.rotation_time_us(find_atom(atoms, "Pack").bitstream_bytes),
              949.53, 0.05);
  EXPECT_NEAR(port.rotation_time_us(find_atom(atoms, "QuadSub").bitstream_bytes),
              848.84, 0.05);
}

TEST(ReconfigPort, RotationTimeScalesInverselyWithBandwidth) {
  const ReconfigPort slow(33.0), fast(132.0);
  EXPECT_NEAR(slow.rotation_time_us(66000), 2000.0, 1e-9);
  EXPECT_NEAR(fast.rotation_time_us(66000), 500.0, 1e-9);
}

TEST(ReconfigPort, CyclesAtClock) {
  const ReconfigPort port(66.0);
  // 66,000 bytes at 66 B/µs = 1000 µs = 100,000 cycles at 100 MHz.
  EXPECT_EQ(port.rotation_time_cycles(66000, 100.0), 100000u);
}

TEST(ReconfigPort, NonzeroBitstreamNeverRoundsToZeroCycles) {
  // Regression: llround turned a sub-half-cycle transfer into a free
  // rotation. 1 byte at the Table-1 rate and a 1 MHz core is ~0.014 cycles
  // and must still cost a full cycle (ceiling semantics).
  const ReconfigPort port;
  EXPECT_GE(port.rotation_time_cycles(1, 1.0), 1u);
  EXPECT_GE(port.rotation_time_cycles(1, 100.0), 1u);
  // Zero bytes is genuinely free.
  EXPECT_EQ(port.rotation_time_cycles(0, 100.0), 0u);
}

TEST(ReconfigPort, CyclesRoundUpNotToNearest) {
  const ReconfigPort port(66.0);
  // 33 bytes at 66 B/µs = 0.5 µs = 50 cycles at 100 MHz — exact, no rounding.
  EXPECT_EQ(port.rotation_time_cycles(33, 100.0), 50u);
  // 1 byte at 66 B/µs on a 90 MHz core ≈ 1.36 cycles → ceiling 2 (llround
  // used to give 1: the tail of the transfer still occupies the port).
  EXPECT_EQ(port.rotation_time_cycles(1, 90.0), 2u);
}

TEST(ReconfigPort, RejectsBadParameters) {
  EXPECT_THROW(ReconfigPort(0.0), PreconditionError);
  EXPECT_THROW(ReconfigPort(-1.0), PreconditionError);
  const ReconfigPort port;
  EXPECT_THROW(port.rotation_time_cycles(100, 0.0), PreconditionError);
}

TEST(AreaModel, H264DefaultShape) {
  const auto model = AreaModel::h264_default();
  ASSERT_EQ(model.blocks().size(), 4u);
  // The Fig-1 narrative: MC has the largest area but only 17 % of the time;
  // ME the smallest area but the dominant share.
  const auto& blocks = model.blocks();
  double me_ge = 0, mc_ge = 0, mc_time = 0, me_time = 0;
  for (const auto& b : blocks) {
    if (b.name == "ME") { me_ge = b.gate_equivalents; me_time = b.time_share; }
    if (b.name == "MC") { mc_ge = b.gate_equivalents; mc_time = b.time_share; }
  }
  EXPECT_DOUBLE_EQ(model.max_ge(), mc_ge);
  EXPECT_NEAR(mc_time, 0.17, 1e-12);
  EXPECT_GT(me_time, 0.5);
  for (const auto& b : blocks) EXPECT_LE(me_ge, b.gate_equivalents);
}

TEST(AreaModel, SavingFormula) {
  const AreaModel m({{"A", 100, 0.5}, {"B", 300, 0.5}});
  EXPECT_DOUBLE_EQ(m.total_ge(), 400.0);
  EXPECT_DOUBLE_EQ(m.max_ge(), 300.0);
  EXPECT_DOUBLE_EQ(m.rispp_ge(1.0), 300.0);
  // (400 − 300)·100/400 = 25 %.
  EXPECT_DOUBLE_EQ(m.ge_saving_percent(1.0), 25.0);
  // α = 4/3 consumes the entire budget: saving 0.
  EXPECT_NEAR(m.ge_saving_percent(400.0 / 300.0), 0.0, 1e-9);
}

TEST(AreaModel, ConstraintFit) {
  const AreaModel m({{"A", 100, 0.4}, {"B", 200, 0.6}});
  EXPECT_TRUE(m.fits(1.0, 250));
  EXPECT_FALSE(m.fits(1.3, 250));
  EXPECT_NEAR(m.max_alpha(250), 1.25, 1e-12);
  EXPECT_THROW(m.max_alpha(100), PreconditionError);
}

TEST(AreaModel, ValidatesInput) {
  EXPECT_THROW(AreaModel({}), PreconditionError);
  EXPECT_THROW(AreaModel({{"A", 100, 0.5}}), PreconditionError);  // shares ≠ 1
  EXPECT_THROW(AreaModel({{"A", 0, 1.0}}), PreconditionError);    // zero GE
  EXPECT_THROW(AreaModel({{"A", 100, 1.5}}), PreconditionError);  // share > 1
  const AreaModel ok({{"A", 100, 1.0}});
  EXPECT_THROW(ok.rispp_ge(0.5), PreconditionError);  // α < 1
}

}  // namespace
