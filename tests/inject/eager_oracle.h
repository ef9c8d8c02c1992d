// The eager fault plan, kept verbatim as the oracle for the lazy cursor:
// make_plan drew the whole plan into a vector, and the Engine split it by
// delivery level and stable-sorted each level by at_instr. The lazy
// PlanCursor / LevelCursor pair must yield exactly these sequences.
#pragma once

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/rng.h"
#include "inject/plan.h"

namespace acs::inject::eager {

/// One renewal process: faults with inter-arrival uniform in
/// [1, 2*mean_interval], starting at `begin`, strictly before `end`.
inline void draw_renewal(const PlanConfig& config, Rng& rng, u64 begin,
                         u64 end, u64 mean_interval,
                         std::vector<PlannedFault>& plan) {
  // The random draw set deliberately excludes kStoreWord (which needs a
  // concrete target) and must stay exactly these six kinds in this order:
  // seeded campaigns are pinned bit-for-bit across the test suite.
  static constexpr FaultKind kAllKinds[] = {
      FaultKind::kRetSlotBitflip, FaultKind::kChainCorrupt,
      FaultKind::kInstrSkip,      FaultKind::kKeyPerturb,
      FaultKind::kSigFrameTrash,  FaultKind::kBudgetExhaust,
  };
  static_assert(std::size(kAllKinds) == kNumPlannableKinds);

  u64 t = begin;
  for (;;) {
    t += 1 + rng.next_below(2 * mean_interval);
    if (t >= end) break;
    PlannedFault fault;
    fault.at_instr = t;
    fault.kind = config.kinds.empty()
                     ? kAllKinds[rng.next_below(kNumPlannableKinds)]
                     : config.kinds[rng.next_below(config.kinds.size())];
    fault.min_depth =
        config.max_depth == 0 ? 0 : rng.next_below(config.max_depth);
    fault.payload = rng.next();
    plan.push_back(fault);
  }
}

inline std::vector<PlannedFault> make_plan(const PlanConfig& config) {
  std::vector<PlannedFault> plan;
  if (config.horizon == 0) return plan;

  Rng rng(config.seed);
  if (config.mean_interval != 0) {
    draw_renewal(config, rng, 0, config.horizon, config.mean_interval, plan);
  }

  // Correlated burst: a second renewal process inside the window, drawn
  // from the same stream *after* the baseline so a disabled burst leaves
  // the baseline plan bit-identical to older releases.
  if (config.burst_len != 0 && config.burst_mean_interval != 0 &&
      config.burst_start < config.horizon) {
    // Clamp without overflow: horizon - burst_start cannot underflow here
    // (burst_start < horizon), while burst_start + burst_len could wrap.
    const u64 burst_end =
        config.horizon - config.burst_start > config.burst_len
            ? config.burst_start + config.burst_len
            : config.horizon;
    const std::size_t baseline_count = plan.size();
    draw_renewal(config, rng, config.burst_start, burst_end,
                 config.burst_mean_interval, plan);
    std::inplace_merge(plan.begin(),
                       plan.begin() + static_cast<std::ptrdiff_t>(
                                          baseline_count),
                       plan.end(),
                       [](const PlannedFault& a, const PlannedFault& b) {
                         return a.at_instr < b.at_instr;
                       });
  }
  return plan;
}

/// The Engine's per-level cursors as it built them from one plan vector.
struct Levels {
  std::vector<PlannedFault> cpu;
  std::vector<PlannedFault> kernel;
};

inline Levels split_and_sort(const std::vector<PlannedFault>& plan) {
  Levels levels;
  for (const PlannedFault& fault : plan) {
    (is_cpu_level(fault.kind) ? levels.cpu : levels.kernel).push_back(fault);
  }
  const auto by_time = [](const PlannedFault& a, const PlannedFault& b) {
    return a.at_instr < b.at_instr;
  };
  std::stable_sort(levels.cpu.begin(), levels.cpu.end(), by_time);
  std::stable_sort(levels.kernel.begin(), levels.kernel.end(), by_time);
  return levels;
}

}  // namespace acs::inject::eager
