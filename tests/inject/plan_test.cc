#include "inject/plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

namespace acs::inject {
namespace {

TEST(Plan, FaultKindNamesAreDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
    const char* name = fault_kind_name(static_cast<FaultKind>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
}

TEST(Plan, CpuKernelPartition) {
  EXPECT_TRUE(is_cpu_level(FaultKind::kRetSlotBitflip));
  EXPECT_TRUE(is_cpu_level(FaultKind::kChainCorrupt));
  EXPECT_TRUE(is_cpu_level(FaultKind::kInstrSkip));
  EXPECT_FALSE(is_cpu_level(FaultKind::kKeyPerturb));
  EXPECT_FALSE(is_cpu_level(FaultKind::kSigFrameTrash));
  EXPECT_FALSE(is_cpu_level(FaultKind::kBudgetExhaust));
  EXPECT_TRUE(is_cpu_level(FaultKind::kStoreWord));
}

TEST(Plan, ZeroMeanIntervalMeansNoFaults) {
  PlanConfig config;
  config.mean_interval = 0;
  EXPECT_TRUE(make_plan(config).empty());
}

TEST(Plan, IsAPureFunctionOfTheConfig) {
  PlanConfig config;
  config.seed = 7;
  config.horizon = 100'000;
  config.mean_interval = 500;
  const auto a = make_plan(config);
  const auto b = make_plan(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_instr, b[i].at_instr);
    EXPECT_EQ(a[i].min_depth, b[i].min_depth);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }

  config.seed = 8;
  const auto c = make_plan(config);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_instr != c[i].at_instr || a[i].payload != c[i].payload;
  }
  EXPECT_TRUE(differs) << "different seeds produced an identical plan";
}

TEST(Plan, RespectsHorizonOrderingAndDensity) {
  PlanConfig config;
  config.seed = 42;
  config.horizon = 1'000'000;
  config.mean_interval = 1000;
  const auto plan = make_plan(config);
  // Renewal process with inter-arrival uniform in [1, 2*mean]: expect
  // horizon/mean faults up to noise.
  EXPECT_GT(plan.size(), 700U);
  EXPECT_LT(plan.size(), 1400U);
  u64 prev = 0;
  for (const PlannedFault& fault : plan) {
    EXPECT_LE(prev, fault.at_instr);
    EXPECT_LT(fault.at_instr, config.horizon);
    EXPECT_LT(fault.min_depth, config.max_depth);
    prev = fault.at_instr;
  }
}

TEST(Plan, RestrictsKindsWhenAsked) {
  PlanConfig config;
  config.seed = 3;
  config.horizon = 50'000;
  config.mean_interval = 200;
  config.kinds = {FaultKind::kInstrSkip, FaultKind::kKeyPerturb};
  std::set<FaultKind> seen;
  for (const PlannedFault& fault : make_plan(config)) seen.insert(fault.kind);
  EXPECT_LE(seen.size(), 2U);
  for (const FaultKind kind : seen) {
    EXPECT_TRUE(kind == FaultKind::kInstrSkip ||
                kind == FaultKind::kKeyPerturb);
  }
  // With the full draw set allowed and this many draws, every plannable
  // kind shows up — and kStoreWord never does (it needs a concrete target,
  // so make_plan never draws it; witness replay builds it by hand).
  config.kinds.clear();
  seen.clear();
  for (const PlannedFault& fault : make_plan(config)) seen.insert(fault.kind);
  EXPECT_EQ(seen.size(), kNumPlannableKinds);
  EXPECT_FALSE(seen.contains(FaultKind::kStoreWord));
}

// --- correlated bursts ----------------------------------------------------

TEST(Plan, DisabledBurstLeavesBaselinePlansBitIdentical) {
  // The burst draw happens after the baseline draw on the same stream, so
  // turning the burst off must reproduce older plans exactly — every
  // pinned fault campaign in the suite depends on this.
  PlanConfig baseline;
  baseline.seed = 42;
  baseline.horizon = 1'000'000;
  baseline.mean_interval = 1000;
  PlanConfig off = baseline;
  off.burst_start = 100'000;
  off.burst_len = 0;  // off
  off.burst_mean_interval = 50;
  const auto a = make_plan(baseline);
  const auto b = make_plan(off);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_instr, b[i].at_instr);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

TEST(Plan, BurstConcentratesFaultsInsideItsWindow) {
  PlanConfig config;
  config.seed = 9;
  config.horizon = 1'000'000;
  config.mean_interval = 10'000;  // sparse baseline: ~100 faults
  config.burst_start = 400'000;
  config.burst_len = 100'000;
  config.burst_mean_interval = 500;  // dense burst: ~200 faults
  const auto plan = make_plan(config);
  u64 inside = 0, outside = 0, prev = 0;
  for (const PlannedFault& fault : plan) {
    EXPECT_LE(prev, fault.at_instr);  // merged plan stays sorted
    EXPECT_LT(fault.at_instr, config.horizon);
    prev = fault.at_instr;
    if (fault.at_instr >= 400'000 && fault.at_instr < 500'000) {
      ++inside;
    } else {
      ++outside;
    }
  }
  // ~210 faults inside the 10% window vs ~90 outside.
  EXPECT_GT(inside, 150U);
  EXPECT_LT(outside, 130U);
  EXPECT_GT(inside, outside);
}

TEST(Plan, BurstAloneWorksWithoutABaselineProcess) {
  PlanConfig config;
  config.seed = 5;
  config.horizon = 200'000;
  config.mean_interval = 0;  // no baseline faults at all
  config.burst_start = 50'000;
  config.burst_len = 20'000;
  config.burst_mean_interval = 100;
  const auto plan = make_plan(config);
  EXPECT_GT(plan.size(), 120U);
  for (const PlannedFault& fault : plan) {
    EXPECT_GE(fault.at_instr, 50'000U);
    EXPECT_LT(fault.at_instr, 70'000U);
  }
}

TEST(Plan, BurstWindowIsClampedToTheHorizon) {
  PlanConfig config;
  config.seed = 6;
  config.horizon = 100'000;
  config.burst_start = 90'000;
  config.burst_len = ~u64{0};  // would overflow burst_start + burst_len
  config.burst_mean_interval = 100;
  const auto plan = make_plan(config);
  EXPECT_FALSE(plan.empty());
  for (const PlannedFault& fault : plan) {
    EXPECT_GE(fault.at_instr, 90'000U);
    EXPECT_LT(fault.at_instr, config.horizon);
  }
  // A burst starting at or past the horizon contributes nothing.
  config.burst_start = 100'000;
  EXPECT_TRUE(make_plan(config).empty());
}

TEST(Plan, MeanIntervalForRate) {
  EXPECT_EQ(mean_interval_for_rate(0, "rate"), 0U);
  EXPECT_EQ(mean_interval_for_rate(40, "rate"), 25'000U);
  EXPECT_EQ(mean_interval_for_rate(8000, "rate"), 125U);
  EXPECT_EQ(mean_interval_for_rate(1e6, "rate"), 1U);
  EXPECT_EQ(mean_interval_for_rate(0.5, "rate"), 2'000'000U);
  for (const double rate : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0, -0.5,
                            1e6 + 1, 1e300, 1e-300, 1e-13}) {
    EXPECT_THROW((void)mean_interval_for_rate(rate, "rate"),
                 std::invalid_argument)
        << rate;
  }
}

}  // namespace
}  // namespace acs::inject
