// The lazy plan cursor against the eager oracle (eager_oracle.h): the
// merged plan and both delivery levels' sequences must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "inject/engine.h"
#include "inject/plan.h"
#include "eager_oracle.h"

namespace acs::inject {
namespace {

constexpr u64 kMax = ~u64{0};

auto fields(const PlannedFault& f) {
  return std::tie(f.at_instr, f.min_depth, f.kind, f.payload, f.at_pc,
                  f.occurrence, f.addr, f.sp_rel);
}

void expect_same(const std::vector<PlannedFault>& want,
                 const std::vector<PlannedFault>& got,
                 const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(fields(want[i]) == fields(got[i]))
        << what << ": entry " << i << " differs (at_instr "
        << want[i].at_instr << " vs " << got[i].at_instr << ")";
  }
}

/// Every fault an engine delivers per level, in order (count-triggered
/// hand-built entries only: a pc-triggered head is never due at pc 0).
eager::Levels drain(Engine& engine) {
  eager::Levels levels;
  TaskInjector* cpu = engine.attach();
  while (cpu->due(kMax, kMax, 0)) levels.cpu.push_back(cpu->take());
  while (engine.kernel_due(kMax)) levels.kernel.push_back(engine.kernel_take());
  return levels;
}

/// Checks make_plan and the engine's per-level cursors against the oracle
/// for `config` plus the hand-built `built` entries.
void check(const PlanConfig& config, const std::vector<PlannedFault>& built,
           const std::string& what) {
  const auto drawn = eager::make_plan(config);
  expect_same(drawn, make_plan(config), what + " make_plan");

  std::vector<PlannedFault> eager_plan = drawn;
  eager_plan.insert(eager_plan.end(), built.begin(), built.end());
  const eager::Levels want = eager::split_and_sort(eager_plan);

  Engine engine({.draw = config, .plan = built});
  const eager::Levels got = drain(engine);
  expect_same(want.cpu, got.cpu, what + " cpu level");
  expect_same(want.kernel, got.kernel, what + " kernel level");
  EXPECT_EQ(engine.drawn(), eager_plan.size()) << what;
}

PlanConfig base(u64 seed) {
  PlanConfig config;
  config.seed = seed;
  config.horizon = 20'000;
  return config;
}

TEST(PlanCursor, BaselineOnly) {
  for (u64 seed = 1; seed <= 8; ++seed) {
    PlanConfig config = base(seed);
    config.mean_interval = 40;
    check(config, {}, "baseline seed " + std::to_string(seed));
  }
}

TEST(PlanCursor, BurstOnly) {
  for (u64 seed = 1; seed <= 8; ++seed) {
    PlanConfig config = base(seed);
    config.burst_start = 3'000;
    config.burst_len = 5'000;
    config.burst_mean_interval = 7;
    check(config, {}, "burst seed " + std::to_string(seed));
  }
}

TEST(PlanCursor, BothProcessesWithTies) {
  u64 ties = 0;
  for (u64 seed = 1; seed <= 8; ++seed) {
    PlanConfig config = base(seed);
    config.mean_interval = 2;
    config.burst_start = 100;
    config.burst_len = 4'000;
    config.burst_mean_interval = 2;
    const auto plan = eager::make_plan(config);
    for (std::size_t i = 1; i < plan.size(); ++i) {
      ties += plan[i].at_instr == plan[i - 1].at_instr ? 1 : 0;
    }
    check(config, {}, "both seed " + std::to_string(seed));
  }
  EXPECT_GT(ties, 0U) << "the grid must exercise equal-at_instr ties";
}

TEST(PlanCursor, BurstClampedAtTheHorizon) {
  for (const u64 len : {u64{5'000}, kMax}) {
    PlanConfig config = base(3);
    config.mean_interval = 100;
    config.burst_start = 18'000;
    config.burst_len = len;
    config.burst_mean_interval = 5;
    check(config, {}, "clamped len " + std::to_string(len));
  }
}

TEST(PlanCursor, BurstStartingAtOrPastTheHorizonIsOff) {
  for (const u64 start : {u64{20'000}, u64{50'000}}) {
    PlanConfig config = base(4);
    config.mean_interval = 100;
    config.burst_start = start;
    config.burst_len = 1'000;
    config.burst_mean_interval = 5;
    check(config, {}, "burst start " + std::to_string(start));
  }
}

TEST(PlanCursor, RestrictedKinds) {
  const std::vector<std::vector<FaultKind>> kind_sets = {
      {FaultKind::kInstrSkip},
      {FaultKind::kBudgetExhaust},
      {FaultKind::kChainCorrupt, FaultKind::kKeyPerturb},
      {FaultKind::kSigFrameTrash, FaultKind::kRetSlotBitflip,
       FaultKind::kKeyPerturb},
  };
  for (std::size_t i = 0; i < kind_sets.size(); ++i) {
    PlanConfig config = base(5 + i);
    config.mean_interval = 60;
    config.burst_start = 2'000;
    config.burst_len = 2'000;
    config.burst_mean_interval = 4;
    config.kinds = kind_sets[i];
    check(config, {}, "kind set " + std::to_string(i));
  }
}

TEST(PlanCursor, MaxDepthZero) {
  PlanConfig config = base(6);
  config.mean_interval = 30;
  config.max_depth = 0;
  check(config, {}, "max_depth 0");
}

TEST(PlanCursor, HorizonZero) {
  PlanConfig config = base(7);
  config.horizon = 0;
  config.mean_interval = 30;
  config.burst_len = 100;
  config.burst_mean_interval = 3;
  check(config, {}, "horizon 0");
  PlannedFault out;
  PlanCursor cursor(config);
  EXPECT_FALSE(cursor.next(out));
}

TEST(PlanCursor, HandBuiltEntriesMergeAfterDrawnOnTies) {
  PlanConfig config = base(8);
  config.mean_interval = 50;
  config.burst_start = 1'000;
  config.burst_len = 3'000;
  config.burst_mean_interval = 9;
  const auto drawn = eager::make_plan(config);
  ASSERT_GT(drawn.size(), 40U);
  // Hand-built entries on drawn times (both levels), on fresh times, and
  // tied among themselves, handed in out of order.
  std::vector<PlannedFault> built;
  for (std::size_t i = 0; i < drawn.size(); i += 7) {
    const FaultKind kind = i % 2 == 0 ? FaultKind::kChainCorrupt
                                      : FaultKind::kKeyPerturb;
    built.push_back({.at_instr = drawn[i].at_instr, .kind = kind,
                     .payload = 1000 + i});
    built.push_back({.at_instr = drawn[i].at_instr, .kind = kind,
                     .payload = 2000 + i});
    built.push_back({.at_instr = drawn[i].at_instr + 1,
                     .kind = FaultKind::kStoreWord, .payload = 3000 + i,
                     .addr = 8, .sp_rel = true});
  }
  std::reverse(built.begin(), built.end());
  built.push_back({.at_instr = 0, .kind = FaultKind::kBudgetExhaust});
  built.push_back({.at_instr = kMax - 1, .kind = FaultKind::kInstrSkip});
  check(config, built, "hand-built ties");
  check(PlanConfig{}, built, "hand-built only");
}

// The dense-storm bound: an eager plan over 2^62 instructions with a
// fault every ~instruction would need ~2^62 entries; the cursor draws only
// as far as the machine asks.
TEST(PlanCursor, DenseStormOverAHugeHorizonDrawsOnDemand) {
  PlanConfig config;
  config.seed = 11;
  config.horizon = u64{1} << 62;
  config.mean_interval = 1;
  Engine engine({.draw = config});
  TaskInjector* cpu = engine.attach();
  PlanCursor oracle(config);
  std::vector<PlannedFault> want_cpu, want_kernel;
  for (PlannedFault fault;
       (want_cpu.size() < 1000 || want_kernel.size() < 1000) &&
       oracle.next(fault);) {
    (is_cpu_level(fault.kind) ? want_cpu : want_kernel).push_back(fault);
  }
  want_cpu.resize(1000);
  want_kernel.resize(1000);
  std::vector<PlannedFault> got_cpu, got_kernel;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(cpu->due(kMax, kMax, 0));
    got_cpu.push_back(cpu->take());
    ASSERT_TRUE(engine.kernel_due(kMax));
    got_kernel.push_back(engine.kernel_take());
  }
  expect_same(want_cpu, got_cpu, "dense cpu");
  expect_same(want_kernel, got_kernel, "dense kernel");
  // One look-ahead per level beyond what was taken.
  EXPECT_EQ(engine.drawn(), 2002U);
}

}  // namespace
}  // namespace acs::inject
