#include <gtest/gtest.h>

#include "rispp/dlx/assembler.hpp"

namespace {

using namespace rispp::dlx;

TEST(Assembler, BasicInstructions) {
  const auto prog = assemble(
      "  addi r1, r0, 5\n"
      "  add  r2, r1, r1\n"
      "  halt\n");
  ASSERT_EQ(prog.code.size(), 3u);
  EXPECT_EQ(prog.code[0].op, Op::Addi);
  EXPECT_EQ(prog.code[0].rd, 1);
  EXPECT_EQ(prog.code[0].imm, 5);
  EXPECT_EQ(prog.code[1].op, Op::Add);
  EXPECT_EQ(prog.code[2].op, Op::Halt);
}

TEST(Assembler, LabelsResolveForwardAndBackward) {
  const auto prog = assemble(
      "start: addi r1, r1, 1\n"
      "       bne  r1, r2, start\n"
      "       j    end\n"
      "       nop\n"
      "end:   halt\n");
  EXPECT_EQ(prog.code[1].imm, 0);  // back to start
  EXPECT_EQ(prog.code[2].imm, 4);  // forward to end
}

TEST(Assembler, MemoryOperandsAndData) {
  const auto prog = assemble(
      "  .data 10 20 0x1f -3 0xffffffff\n"
      "  lw r1, 8(r2)\n"
      "  sw r1, -4(r3)\n"
      "  halt\n");
  ASSERT_EQ(prog.data.size(), 5u);
  EXPECT_EQ(prog.data[2], 0x1fu);
  EXPECT_EQ(prog.data[3], static_cast<std::uint32_t>(-3));
  EXPECT_EQ(prog.data[4], 0xffffffffu);  // a 32-bit pattern, not an int32
  EXPECT_EQ(prog.code[0].imm, 8);
  EXPECT_EQ(prog.code[0].rs, 2);
  EXPECT_EQ(prog.code[1].imm, -4);
}

TEST(Assembler, RisppExtensionOps) {
  const auto prog = assemble(
      "  forecast SATD_4x4, 256\n"
      "  si SATD_4x4 r4, r5, r6\n"
      "  release SATD_4x4\n"
      "  halt\n");
  EXPECT_EQ(prog.code[0].op, Op::Forecast);
  EXPECT_EQ(prog.code[0].si_name, "SATD_4x4");
  EXPECT_EQ(prog.code[0].imm, 256);
  EXPECT_EQ(prog.code[1].op, Op::Si);
  EXPECT_EQ(prog.code[1].rd, 4);
  EXPECT_EQ(prog.code[1].rs, 5);
  EXPECT_EQ(prog.code[1].rt, 6);
  EXPECT_EQ(prog.code[2].op, Op::Release);
}

TEST(Assembler, CommentsAndCaseInsensitivity) {
  const auto prog = assemble(
      "; full line comment\n"
      "  ADDI r1, r0, 1  # trailing comment\n"
      "  HALT\n");
  EXPECT_EQ(prog.code.size(), 2u);
  EXPECT_EQ(prog.code[0].op, Op::Addi);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  auto expect_error_at = [](const std::string& src, std::size_t line) {
    try {
      assemble(src);
      FAIL() << "expected AsmError";
    } catch (const AsmError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  expect_error_at("  frobnicate r1\n", 1);                 // unknown mnemonic
  expect_error_at("  add r1, r2\n", 1);                    // operand count
  expect_error_at("  addi r1, r0, xyz\n", 1);              // bad immediate
  expect_error_at("  addi r99, r0, 1\n", 1);               // bad register
  expect_error_at("  addi r1, r0, 0x100000005\n", 1);      // over 32 bits
  expect_error_at("  addi r1, r0, 010\n", 1);              // not octal
  expect_error_at("  addi r1, r0, 2147483648\n", 1);       // over int32
  expect_error_at("  addi r+5, r0, 1\n", 1);               // signed register
  expect_error_at("  lw r1, 8\n", 1);                      // missing (base)
  expect_error_at("nop\n  j nowhere\n  halt\n", 2);        // undefined label
  expect_error_at("a: nop\na: halt\n", 2);                 // duplicate label
  expect_error_at("", 0);                                  // empty program
}

TEST(Assembler, MultipleLabelsOneLine) {
  const auto prog = assemble("a: b: halt\n");
  EXPECT_EQ(prog.code.size(), 1u);
}

}  // namespace
