// Step-vs-fast differential for Cpu::run with a fault injector attached:
// running fast up to the next count-triggered fault must leave exactly the
// state that stepping every instruction does — registers, flags, clocks,
// call depth, memory, the stop state and the delivered-fault summary.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "inject/engine.h"
#include "sim/assembler.h"
#include "sim/cpu.h"

namespace acs::sim {
namespace {

using inject::Engine;
using inject::FaultKind;
using inject::PlannedFault;

constexpr u64 kCodeBase = 0x1'0000;
constexpr u64 kDataBase = 0x10'0000;
constexpr u64 kStackTop = 0x20'1000;
constexpr u64 kBudget = 40'000;

/// PCs of the test program the pc-triggered faults aim at.
struct Marks {
  u64 loop_top = 0;  ///< first instruction of the main loop body
  u64 leaf_load = 0;  ///< the accumulator load in the depth-3 leaf
};

/// A 400-iteration loop over a three-deep call chain whose frames sign
/// their return addresses (pacia/autia; f with SP, g with CR), so a
/// flipped stack slot or a wrong CR guess crashes at the return. The leaf
/// sums the loop counter into a memory accumulator, so a store to it
/// leaves a trace of *when* it landed.
Program build_program(Marks& marks) {
  Assembler as(kCodeBase);
  as.mov_imm(Reg::kX19, 400);
  as.mov_imm(Reg::kX20, kDataBase);
  as.mov_imm(kCr, 0x5555);
  as.label("loop");
  marks.loop_top = as.here();
  as.bl("f");
  as.add_imm(Reg::kX21, Reg::kX21, 3);
  as.sub_imm(Reg::kX19, Reg::kX19, 1);
  as.cbnz(Reg::kX19, "loop");
  as.hlt();
  const char* const kFrames[][2] = {{"f", "g"}, {"g", "h"}};
  for (const auto& [name, callee] : kFrames) {
    as.function(name);
    const Reg modifier = std::string(name) == "g" ? kCr : Reg::kSp;
    as.pacia(kLr, modifier);
    as.stp(Reg::kX29, kLr, Reg::kSp, -16, AddrMode::kPreIndex);
    as.add_imm(Reg::kX22, Reg::kX22, 1);
    as.bl(callee);
    as.ldp(Reg::kX29, kLr, Reg::kSp, 16, AddrMode::kPostIndex);
    as.autia(kLr, modifier);
    as.ret();
  }
  as.function("h");
  as.eor(Reg::kX23, Reg::kX23, Reg::kX19);
  marks.leaf_load = as.here();
  as.ldr(Reg::kX24, Reg::kX20, 16);
  as.add(Reg::kX24, Reg::kX24, Reg::kX19);
  as.str(Reg::kX24, Reg::kX20, 16);
  as.cmp(Reg::kX24, Reg::kX23);
  as.ret();
  return as.assemble();
}

/// One CPU with its own memory and engine; `program` must outlive it.
class Hart {
 public:
  Hart(const Program& program, Engine::Config config)
      : pauth_(make_keys(), pa::VaLayout{39}, "siphash", false),
        engine_(std::move(config)) {
    mem_.map(kCodeBase, program.size_bytes() + 64, kPermRx, "code");
    mem_.map(kDataBase, 0x1000, kPermRw, "data");
    mem_.map(kStackTop - 0x1000, 0x1000, kPermRw, "stack");
    cpu_ = std::make_unique<Cpu>(program, mem_, pauth_);
    cpu_->set_reg(Reg::kSp, kStackTop);
    cpu_->set_injector(engine_.attach());
  }

  /// The reference: one step() per instruction. Returns steps taken.
  u64 step_all() {
    u64 steps = 0;
    for (; steps < kBudget && cpu_->state() == RunState::kReady; ++steps) {
      cpu_->step();
    }
    return steps;
  }

  /// Cpu::run in slices of `slice` steps, as the kernel's scheduler does.
  u64 run_all(u64 slice) {
    u64 steps = 0;
    while (steps < kBudget && cpu_->state() == RunState::kReady) {
      cpu_->run(std::min(slice, kBudget - steps));
      steps += cpu_->last_run_steps();
    }
    return steps;
  }

  Cpu& cpu() { return *cpu_; }
  const Engine& engine() const { return engine_; }
  std::vector<u64> words(u64 base, u64 len) const {
    std::vector<u64> out;
    for (u64 a = base; a < base + len; a += 8) {
      out.push_back(mem_.raw_read_u64(a));
    }
    return out;
  }

 private:
  static crypto::KeySet make_keys() {
    Rng rng(77);
    return crypto::random_key_set(rng);
  }

  pa::PointerAuth pauth_;
  Engine engine_;
  AddressSpace mem_;
  std::unique_ptr<Cpu> cpu_;
};

/// Runs `config` stepped and fast (several slice sizes) and compares.
void expect_step_equals_fast(const Engine::Config& config,
                             const std::string& what) {
  Marks marks;
  const Program program = build_program(marks);
  Hart stepped(program, config);
  const u64 stepped_steps = stepped.step_all();
  EXPECT_GT(stepped.engine().summary().total_injected(), 0U)
      << what << ": no fault was delivered, so nothing was compared";
  for (const u64 slice : {kBudget, u64{1'000}, u64{97}, u64{1}}) {
    SCOPED_TRACE(what + ", slice " + std::to_string(slice));
    Hart fast(program, config);
    EXPECT_EQ(fast.run_all(slice), stepped_steps);
    Cpu& a = stepped.cpu();
    Cpu& b = fast.cpu();
    EXPECT_EQ(a.state(), b.state());
    EXPECT_EQ(a.fault().kind, b.fault().kind);
    EXPECT_EQ(a.fault().address, b.fault().address);
    EXPECT_EQ(a.fault().pc, b.fault().pc);
    const CpuSnapshot sa = a.snapshot();
    const CpuSnapshot sb = b.snapshot();
    EXPECT_EQ(sa.regs, sb.regs);
    EXPECT_EQ(sa.pc, sb.pc);
    EXPECT_EQ(std::vector<bool>({sa.n, sa.z, sa.c, sa.v}),
              std::vector<bool>({sb.n, sb.z, sb.c, sb.v}));
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.instructions(), b.instructions());
    EXPECT_EQ(a.call_depth(), b.call_depth());
    EXPECT_EQ(stepped.words(kDataBase, 64), fast.words(kDataBase, 64));
    EXPECT_EQ(stepped.words(kStackTop - 256, 256),
              fast.words(kStackTop - 256, 256));
    const inject::Summary& ia = stepped.engine().summary();
    const inject::Summary& ib = fast.engine().summary();
    EXPECT_EQ(ia.injected, ib.injected);
    EXPECT_EQ(ia.guess_attempts, ib.guess_attempts);
    EXPECT_EQ(ia.guess_successes, ib.guess_successes);
    EXPECT_EQ(stepped.engine().drawn(), fast.engine().drawn());
  }
}

TEST(CpuInject, CountTriggeredFaults) {
  expect_step_equals_fast(
      {.plan = {{.at_instr = 500, .kind = FaultKind::kRetSlotBitflip,
                 .payload = 0x3f},
                {.at_instr = 1'203, .kind = FaultKind::kRetSlotBitflip,
                 .payload = (10 << 3) | 1}}},
      "count-triggered bitflips");
}

TEST(CpuInject, MinDepthDeferralAndGraceExpiry) {
  // Depth 3 is reached inside h; depth 40 never is, so that fault fires
  // when kDepthGrace runs out.
  expect_step_equals_fast(
      {.plan = {{.at_instr = 100, .min_depth = 3,
                 .kind = FaultKind::kInstrSkip},
                {.at_instr = 2'000, .min_depth = 40,
                 .kind = FaultKind::kRetSlotBitflip, .payload = 0x9}}},
      "min_depth");
  Marks marks;
  const Program program = build_program(marks);
  Hart probe(program, {.plan = {{.at_instr = 2'000, .min_depth = 40,
                                 .kind = FaultKind::kInstrSkip}}});
  probe.run_all(kBudget);
  EXPECT_EQ(probe.engine().summary().total_injected(), 1U)
      << "the grace expiry must deliver the fault";
}

TEST(CpuInject, ChainCorruptWaitsForACall) {
  for (const u64 payload : {u64{0}, u64{5}, u64{0xa}}) {
    expect_step_equals_fast(
        {.plan = {{.at_instr = 777, .kind = FaultKind::kChainCorrupt,
                   .payload = payload},
                  {.at_instr = 3'001, .min_depth = 2,
                   .kind = FaultKind::kChainCorrupt, .payload = payload}},
         .guess_window = 4},
        "chain-corrupt payload " + std::to_string(payload));
  }
}

TEST(CpuInject, InstrSkip) {
  expect_step_equals_fast(
      {.plan = {{.at_instr = 3, .kind = FaultKind::kInstrSkip},
                {.at_instr = 4'321, .kind = FaultKind::kInstrSkip},
                {.at_instr = 4'322, .kind = FaultKind::kInstrSkip}}},
      "instr-skip");
}

TEST(CpuInject, PcTriggeredFaults) {
  Marks marks;
  (void)build_program(marks);
  expect_step_equals_fast(
      {.plan = {{.kind = FaultKind::kStoreWord, .payload = 0xbeef,
                 .at_pc = marks.leaf_load, .occurrence = 5,
                 .addr = kDataBase + 16},
                {.at_instr = 50, .kind = FaultKind::kInstrSkip},
                {.kind = FaultKind::kInstrSkip, .at_pc = marks.loop_top,
                 .occurrence = 3}}},
      "pc-triggered");
  // A pc-triggered fault ignores its at_instr (which only orders it in the
  // plan), so it counts executions from the start, not from at_instr.
  expect_step_equals_fast(
      {.plan = {{.at_instr = 2'000, .kind = FaultKind::kStoreWord,
                 .payload = 0xbeef, .at_pc = marks.leaf_load,
                 .occurrence = 2, .addr = kDataBase + 16}}},
      "pc-triggered with a late at_instr");
}

TEST(CpuInject, DrawnPlans) {
  for (u64 seed = 1; seed <= 12; ++seed) {
    expect_step_equals_fast({.draw = {.seed = seed,
                                      .horizon = kBudget,
                                      .mean_interval = 900,
                                      .max_depth = 4}},
                            "drawn seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace acs::sim
