#include "cpu/isa.h"

#include <gtest/gtest.h>

namespace clockmark::cpu {

// Names each case by its fields (e.g. "addimm_r1_r2_r0_imm-2048_al").
// Without it gtest prints the raw object bytes, whose struct padding is
// uninitialised, so each run could register the cases under new ctest
// names. Declared in the type's namespace so gtest finds it by ADL.
void PrintTo(const Instruction& in, std::ostream* os) {
  *os << mnemonic(in.opcode) << "_r" << static_cast<int>(in.rd) << "_r"
      << static_cast<int>(in.rn) << "_r" << static_cast<int>(in.rm)
      << "_imm" << in.imm << '_' << cond_name(in.cond);
}

namespace {

class RoundTrip : public ::testing::TestWithParam<Instruction> {};

TEST_P(RoundTrip, EncodeDecodeIdentity) {
  const Instruction in = GetParam();
  const std::uint32_t word = encode(in);
  const auto out = decode(word);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->opcode, in.opcode);
  EXPECT_EQ(out->imm, in.imm);
  if (in.opcode == Opcode::kBc) {
    EXPECT_EQ(out->cond, in.cond);
  }
  if (in.opcode != Opcode::kB && in.opcode != Opcode::kBc &&
      in.opcode != Opcode::kBl) {
    EXPECT_EQ(out->rd, in.rd);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoundTrip,
    ::testing::Values(
        Instruction{Opcode::kNop, 0, 0, 0, 0, Cond::kAl},
        Instruction{Opcode::kHalt, 0, 0, 0, 0, Cond::kAl},
        Instruction{Opcode::kMovImm, 5, 0, 0, 0xffff, Cond::kAl},
        Instruction{Opcode::kMovTop, 15, 0, 0, 0x1234, Cond::kAl},
        Instruction{Opcode::kAdd, 1, 2, 3, 0, Cond::kAl},
        Instruction{Opcode::kAddImm, 1, 2, 0, -2048, Cond::kAl},
        Instruction{Opcode::kSubImm, 1, 2, 0, 2047, Cond::kAl},
        Instruction{Opcode::kMul, 7, 8, 9, 0, Cond::kAl},
        Instruction{Opcode::kLdr, 3, 13, 0, 1020, Cond::kAl},
        Instruction{Opcode::kStrb, 3, 4, 0, -1, Cond::kAl},
        Instruction{Opcode::kPush, 0, 0, 0, 0x80f0, Cond::kAl},
        Instruction{Opcode::kPop, 0, 0, 0, 0x80f0, Cond::kAl},
        Instruction{Opcode::kB, 0, 0, 0, -100000, Cond::kAl},
        Instruction{Opcode::kB, 0, 0, 0, 524287, Cond::kAl},
        Instruction{Opcode::kBl, 0, 0, 0, -1, Cond::kAl},
        Instruction{Opcode::kBc, 0, 0, 0, -32768, Cond::kLt},
        Instruction{Opcode::kBc, 0, 0, 0, 32767, Cond::kNe},
        Instruction{Opcode::kBx, 0, 14, 0, 0, Cond::kAl}));

TEST(Encode, RangeChecks) {
  EXPECT_THROW(encode({Opcode::kMovImm, 5, 0, 0, 0x10000, Cond::kAl}),
               std::invalid_argument);
  EXPECT_THROW(encode({Opcode::kMovImm, 5, 0, 0, -1, Cond::kAl}),
               std::invalid_argument);
  EXPECT_THROW(encode({Opcode::kAddImm, 5, 0, 0, 2048, Cond::kAl}),
               std::invalid_argument);
  EXPECT_THROW(encode({Opcode::kAddImm, 5, 0, 0, -2049, Cond::kAl}),
               std::invalid_argument);
  EXPECT_THROW(encode({Opcode::kB, 0, 0, 0, 1 << 19, Cond::kAl}),
               std::invalid_argument);
  EXPECT_THROW(encode({Opcode::kBc, 0, 0, 0, 1 << 15, Cond::kEq}),
               std::invalid_argument);
  EXPECT_THROW(encode({Opcode::kAdd, 16, 0, 0, 0, Cond::kAl}),
               std::invalid_argument);
}

TEST(Decode, InvalidOpcodeRejected) {
  EXPECT_FALSE(decode(0xff000000u).has_value());
}

TEST(Decode, ConditionField) {
  const std::uint32_t w =
      encode({Opcode::kBc, 0, 0, 0, 12, Cond::kGe});
  const auto inst = decode(w);
  ASSERT_TRUE(inst.has_value());
  EXPECT_EQ(inst->cond, Cond::kGe);
  EXPECT_EQ(inst->imm, 12);
}

TEST(Classification, WritesRd) {
  EXPECT_TRUE(writes_rd(Opcode::kAdd));
  EXPECT_TRUE(writes_rd(Opcode::kLdr));
  EXPECT_TRUE(writes_rd(Opcode::kMovImm));
  EXPECT_FALSE(writes_rd(Opcode::kCmp));
  EXPECT_FALSE(writes_rd(Opcode::kStr));
  EXPECT_FALSE(writes_rd(Opcode::kB));
  EXPECT_FALSE(writes_rd(Opcode::kHalt));
}

TEST(Classification, MemoryAndBranch) {
  EXPECT_TRUE(is_memory(Opcode::kLdrb));
  EXPECT_TRUE(is_memory(Opcode::kPush));
  EXPECT_FALSE(is_memory(Opcode::kAdd));
  EXPECT_TRUE(is_branch(Opcode::kBc));
  EXPECT_TRUE(is_branch(Opcode::kBx));
  EXPECT_FALSE(is_branch(Opcode::kCmp));
}

TEST(ToString, ReadableForms) {
  EXPECT_EQ(to_string({Opcode::kAdd, 1, 2, 3, 0, Cond::kAl}),
            "add r1, r2, r3");
  EXPECT_EQ(to_string({Opcode::kMovImm, 0, 0, 0, 42, Cond::kAl}),
            "mov r0, #42");
  EXPECT_EQ(to_string({Opcode::kLdr, 3, 13, 0, 8, Cond::kAl}),
            "ldr r3, [sp, #8]");
  EXPECT_EQ(to_string({Opcode::kBx, 0, 14, 0, 0, Cond::kAl}), "bx lr");
  const std::string bc = to_string({Opcode::kBc, 0, 0, 0, 5, Cond::kNe});
  EXPECT_NE(bc.find("bne"), std::string::npos);
}

TEST(Mnemonics, CoverAllOpcodes) {
  for (std::uint8_t op = 0; op <= static_cast<std::uint8_t>(Opcode::kBx);
       ++op) {
    EXPECT_NE(mnemonic(static_cast<Opcode>(op)), "?");
  }
}

}  // namespace
}  // namespace clockmark::cpu
