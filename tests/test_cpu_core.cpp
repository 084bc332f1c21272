#include "cpu/core.h"

#include <gtest/gtest.h>

#include "cpu/assembler.h"
#include "cpu/programs.h"

namespace clockmark::cpu {
namespace {

/// Flat test memory: 64 KiB ROM at 0, 64 KiB RAM at kRamBase.
class TestBus : public BusInterface {
 public:
  std::vector<std::uint8_t> rom = std::vector<std::uint8_t>(0x10000, 0);
  std::vector<std::uint8_t> ram = std::vector<std::uint8_t>(0x10000, 0);

  void load(const ProgramImage& image) {
    for (std::size_t i = 0; i < image.words.size(); ++i) {
      for (unsigned b = 0; b < 4; ++b) {
        rom[image.base_address + i * 4 + b] =
            static_cast<std::uint8_t>(image.words[i] >> (8 * b));
      }
    }
  }

  Access read(std::uint32_t addr, unsigned bytes) override {
    auto* mem = region(addr);
    if (mem == nullptr) return {0, 0, true};
    const std::uint32_t off = offset(addr);
    std::uint32_t v = 0;
    for (unsigned i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint32_t>((*mem)[off + i]) << (8 * i);
    }
    return {v, 0, false};
  }
  Access write(std::uint32_t addr, std::uint32_t data,
               unsigned bytes) override {
    auto* mem = region(addr);
    if (mem == nullptr || mem == &rom) return {0, 0, true};
    const std::uint32_t off = offset(addr);
    for (unsigned i = 0; i < bytes; ++i) {
      (*mem)[off + i] = static_cast<std::uint8_t>(data >> (8 * i));
    }
    return {0, 0, false};
  }

 private:
  std::vector<std::uint8_t>* region(std::uint32_t addr) {
    if (addr < 0x10000) return &rom;
    if (addr >= kRamBase && addr < kRamBase + 0x10000) return &ram;
    return nullptr;
  }
  static std::uint32_t offset(std::uint32_t addr) {
    return addr < 0x10000 ? addr : addr - kRamBase;
  }
};

/// Assembles, runs until halt (or cycle cap), returns the core.
struct RunResult {
  TestBus bus;
  std::unique_ptr<Em0Core> core;
};

std::unique_ptr<RunResult> run_program(const std::string& src,
                                       std::size_t max_cycles = 100000) {
  auto rr = std::make_unique<RunResult>();
  rr->bus.load(assemble(src).image);
  rr->core = std::make_unique<Em0Core>(rr->bus);
  rr->core->reset(0, kRamBase + 0x10000);
  std::size_t c = 0;
  while (!rr->core->halted() && !rr->core->faulted() && c++ < max_cycles) {
    rr->core->step();
  }
  return rr;
}

TEST(Em0Core, ArithmeticAndFlags) {
  auto rr = run_program(R"(
      mov r0, #7
      mov r1, #5
      add r2, r0, r1     ; 12
      sub r3, r0, r1     ; 2
      mul r4, r0, r1     ; 35
      rsb r5, r1, r0     ; r0 - r1? no: rsb rd, rn, rm -> rm - rn = 7-5=2
      halt)");
  EXPECT_EQ(rr->core->reg(2), 12u);
  EXPECT_EQ(rr->core->reg(3), 2u);
  EXPECT_EQ(rr->core->reg(4), 35u);
  EXPECT_EQ(rr->core->reg(5), 2u);
  EXPECT_FALSE(rr->core->faulted());
}

TEST(Em0Core, CarryAndOverflowFlags) {
  // 0xffffffff + 1 = 0 with carry out, no signed overflow.
  auto rr = run_program(R"(
      li  r0, 0xffffffff
      mov r1, #1
      add r2, r0, r1
      halt)");
  EXPECT_EQ(rr->core->reg(2), 0u);
  EXPECT_TRUE(rr->core->flag_z());
  EXPECT_TRUE(rr->core->flag_c());
  EXPECT_FALSE(rr->core->flag_v());

  // 0x7fffffff + 1 overflows signed.
  auto rr2 = run_program(R"(
      li  r0, 0x7fffffff
      mov r1, #1
      add r2, r0, r1
      halt)");
  EXPECT_TRUE(rr2->core->flag_v());
  EXPECT_TRUE(rr2->core->flag_n());
}

TEST(Em0Core, SubtractionBorrowSemantics) {
  // ARM-style: C = NOT borrow. 5 - 7 borrows -> C clear, negative result.
  auto rr = run_program(R"(
      mov r0, #5
      mov r1, #7
      sub r2, r0, r1
      halt)");
  EXPECT_EQ(rr->core->reg(2), 0xfffffffeu);
  EXPECT_FALSE(rr->core->flag_c());
  EXPECT_TRUE(rr->core->flag_n());
}

TEST(Em0Core, AdcSbcUseCarry) {
  auto rr = run_program(R"(
      li  r0, 0xffffffff
      mov r1, #1
      add r2, r0, r1    ; sets C
      mov r3, #10
      mov r4, #20
      adc r5, r3, r4    ; 10+20+1 = 31
      halt)");
  EXPECT_EQ(rr->core->reg(5), 31u);
}

TEST(Em0Core, LogicOperations) {
  auto rr = run_program(R"(
      li  r0, 0xff00ff00
      li  r1, 0x0ff00ff0
      and r2, r0, r1
      orr r3, r0, r1
      eor r4, r0, r1
      bic r5, r0, r1
      mvn r6, r0
      halt)");
  EXPECT_EQ(rr->core->reg(2), 0x0f000f00u);
  EXPECT_EQ(rr->core->reg(3), 0xfff0fff0u);
  EXPECT_EQ(rr->core->reg(4), 0xf0f0f0f0u);
  EXPECT_EQ(rr->core->reg(5), 0xf000f000u);
  EXPECT_EQ(rr->core->reg(6), 0x00ff00ffu);
}

TEST(Em0Core, Shifts) {
  auto rr = run_program(R"(
      mov r0, #1
      lsl r1, r0, #31
      lsr r2, r1, #31
      li  r3, 0x80000000
      asr r4, r3, #4
      mov r5, #3
      lsl r6, r0, r5
      halt)");
  EXPECT_EQ(rr->core->reg(1), 0x80000000u);
  EXPECT_EQ(rr->core->reg(2), 1u);
  EXPECT_EQ(rr->core->reg(4), 0xf8000000u);
  EXPECT_EQ(rr->core->reg(6), 8u);
}

TEST(Em0Core, RegisterShiftsBeyondWidth) {
  // Register-specified shifts can reach 32+: ARM-style results.
  auto rr = run_program(R"(
      li  r0, 0x80000001
      mov r1, #32
      lsl r2, r0, r1     ; -> 0, C = old bit 0
      lsr r3, r0, r1     ; -> 0, C = old bit 31
      mov r4, #40
      lsl r5, r0, r4     ; -> 0, C = 0
      asr r6, r0, r4     ; -> sign fill = 0xffffffff
      halt)");
  EXPECT_EQ(rr->core->reg(2), 0u);
  EXPECT_EQ(rr->core->reg(3), 0u);
  EXPECT_EQ(rr->core->reg(5), 0u);
  EXPECT_EQ(rr->core->reg(6), 0xffffffffu);
}

TEST(Em0Core, ZeroShiftLeavesValueAndCarry) {
  auto rr = run_program(R"(
      li  r0, 0xabcd1234
      mov r1, #0
      lsl r2, r0, r1
      lsr r3, r0, r1
      halt)");
  EXPECT_EQ(rr->core->reg(2), 0xabcd1234u);
  EXPECT_EQ(rr->core->reg(3), 0xabcd1234u);
}

TEST(Em0Core, MemoryWordHalfByte) {
  auto rr = run_program(R"(
      li   r9, 0x20000000
      li   r0, 0xdeadbeef
      str  r0, [r9]
      ldr  r1, [r9]
      ldrh r2, [r9]
      ldrb r3, [r9]
      ldrb r4, [r9, #3]
      strb r0, [r9, #8]
      ldr  r5, [r9, #8]
      halt)");
  EXPECT_EQ(rr->core->reg(1), 0xdeadbeefu);
  EXPECT_EQ(rr->core->reg(2), 0xbeefu);
  EXPECT_EQ(rr->core->reg(3), 0xefu);
  EXPECT_EQ(rr->core->reg(4), 0xdeu);
  EXPECT_EQ(rr->core->reg(5), 0xefu);
}

TEST(Em0Core, PushPopRoundTrip) {
  auto rr = run_program(R"(
      li   sp, 0x20010000
      mov  r4, #44
      mov  r5, #55
      push {r4, r5}
      mov  r4, #0
      mov  r5, #0
      pop  {r4, r5}
      halt)");
  EXPECT_EQ(rr->core->reg(4), 44u);
  EXPECT_EQ(rr->core->reg(5), 55u);
  EXPECT_EQ(rr->core->reg(kSp), 0x20010000u);
}

TEST(Em0Core, CallAndReturn) {
  auto rr = run_program(R"(
      li   sp, 0x20010000
      mov  r0, #5
      bl   double_it
      halt
  double_it:
      push {lr}
      add  r0, r0, r0
      pop  {pc}
      )");
  EXPECT_EQ(rr->core->reg(0), 10u);
  EXPECT_TRUE(rr->core->halted());
}

TEST(Em0Core, BxReturns) {
  auto rr = run_program(R"(
      mov  r0, #1
      bl   f
      add  r0, r0, #100
      halt
  f:
      add  r0, r0, #10
      bx   lr
      )");
  EXPECT_EQ(rr->core->reg(0), 111u);
}

struct CondCase {
  const char* branch;
  int lhs;
  int rhs;
  bool taken;
};

// Stable printed form, e.g. "beq_5_vs_6_not_taken". Without it gtest
// prints the raw object bytes, which hold the mnemonic's address and
// struct padding, so each build would register the cases under new
// ctest names.
void PrintTo(const CondCase& cc, std::ostream* os) {
  *os << cc.branch << '_' << cc.lhs << "_vs_" << cc.rhs
      << (cc.taken ? "_taken" : "_not_taken");
}

class ConditionalBranches : public ::testing::TestWithParam<CondCase> {};

TEST_P(ConditionalBranches, TakenWhenConditionHolds) {
  const auto& cc = GetParam();
  const std::string src = std::string("    mov r0, #") +
                          std::to_string(cc.lhs) + "\n    mov r1, #" +
                          std::to_string(cc.rhs) +
                          "\n    cmp r0, r1\n    " + cc.branch +
                          " taken\n    mov r2, #0\n    halt\ntaken:\n    "
                          "mov r2, #1\n    halt\n";
  auto rr = run_program(src);
  EXPECT_EQ(rr->core->reg(2), cc.taken ? 1u : 0u)
      << cc.branch << " " << cc.lhs << " vs " << cc.rhs;
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, ConditionalBranches,
    ::testing::Values(CondCase{"beq", 5, 5, true},
                      CondCase{"beq", 5, 6, false},
                      CondCase{"bne", 5, 6, true},
                      CondCase{"blt", 3, 5, true},
                      CondCase{"blt", 5, 3, false},
                      CondCase{"bge", 5, 5, true},
                      CondCase{"bgt", 6, 5, true},
                      CondCase{"ble", 5, 5, true},
                      CondCase{"bhi", 7, 3, true},
                      CondCase{"bls", 3, 7, true},
                      CondCase{"bcs", 7, 3, true},   // no borrow
                      CondCase{"bcc", 3, 7, true},   // borrow
                      CondCase{"bmi", 3, 7, true},
                      CondCase{"bpl", 7, 3, true}));

TEST(Em0Core, FibonacciEndToEnd) {
  auto result = assemble(fibonacci_source());
  TestBus bus;
  bus.load(result.image);
  Em0Core core(bus);
  core.reset(0, kRamBase + 0x10000);
  core.set_reg(0, 20);
  while (!core.halted()) core.step();
  EXPECT_EQ(core.reg(0), 6765u);  // fib(20)
}

TEST(Em0Core, MemcpyEndToEnd) {
  auto result = assemble(memcpy_source());
  TestBus bus;
  bus.load(result.image);
  for (int i = 0; i < 16; ++i) {
    bus.ram[i] = static_cast<std::uint8_t>(0xa0 + i);
  }
  Em0Core core(bus);
  core.reset(0, kRamBase + 0x10000);
  core.set_reg(0, kRamBase + 0x100);  // dst
  core.set_reg(1, kRamBase);          // src
  core.set_reg(2, 16);                // len
  while (!core.halted()) core.step();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(bus.ram[0x100 + i], 0xa0 + i);
  }
}

TEST(Em0Core, WfiSleepsUntilWake) {
  auto result = assemble("    wfi\n    mov r0, #9\n    halt\n");
  TestBus bus;
  bus.load(result.image);
  Em0Core core(bus);
  core.reset(0, kRamBase + 0x10000);
  core.step();  // executes wfi
  for (int i = 0; i < 5; ++i) {
    const auto& act = core.step();
    EXPECT_TRUE(act.sleeping);
  }
  core.wake();
  while (!core.halted()) core.step();
  EXPECT_EQ(core.reg(0), 9u);
}

TEST(Em0Core, UnmappedAccessFaults) {
  auto rr = run_program(R"(
      li  r0, 0x90000000
      ldr r1, [r0]
      halt)");
  EXPECT_TRUE(rr->core->faulted());
}

TEST(Em0Core, ActivityReporting) {
  auto result = assemble(R"(
      mov r0, #3
      mul r1, r0, r0
      lsl r2, r1, #2
      li  r9, 0x20000000
      str r2, [r9]
      halt)");
  TestBus bus;
  bus.load(result.image);
  Em0Core core(bus);
  core.reset(0, kRamBase + 0x10000);
  const auto& a1 = core.step();  // mov
  EXPECT_TRUE(a1.alu_used);
  EXPECT_TRUE(a1.fetch);
  const auto& a2 = core.step();  // mul
  EXPECT_TRUE(a2.multiplier_used);
  const auto& a3 = core.step();  // lsl
  EXPECT_TRUE(a3.shifter_used);
  core.step();                   // li part 1 (mov)
  core.step();                   // li part 2 (movt)
  const auto& a4 = core.step();  // str
  EXPECT_TRUE(a4.mem_write);
  const auto& a5 = core.step();  // stall cycle of str
  EXPECT_TRUE(a5.stall);
}

TEST(Em0Core, TogglesCountHammingDistance) {
  auto result = assemble(R"(
      li r0, 0x0000ffff
      halt)");
  TestBus bus;
  bus.load(result.image);
  Em0Core core(bus);
  core.reset(0, kRamBase + 0x10000);
  const auto& a = core.step();  // mov r0, #0xffff : r0 0 -> 0xffff
  EXPECT_EQ(a.data_toggle_bits, 16u);
  EXPECT_EQ(a.regfile_writes, 1u);
}

TEST(Em0Core, HaltedStaysHalted) {
  auto rr = run_program("    halt\n");
  const auto& act = rr->core->step();
  EXPECT_TRUE(act.halted);
  EXPECT_TRUE(rr->core->halted());
}

TEST(Em0Core, InstructionCountersAdvance) {
  auto rr = run_program(R"(
      mov r0, #1
      mov r1, #2
      halt)");
  EXPECT_EQ(rr->core->instructions_retired(), 3u);
  EXPECT_GE(rr->core->cycles(), 3u);
}

TEST(Em0Core, StateStringContainsRegisters) {
  auto rr = run_program("    mov r0, #255\n    halt\n");
  const std::string s = rr->core->state_string();
  EXPECT_NE(s.find("r0=0xff"), std::string::npos);
  EXPECT_NE(s.find("NZCV"), std::string::npos);
}

}  // namespace
}  // namespace clockmark::cpu
