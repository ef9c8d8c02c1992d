#include "inject/plan.h"

#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>

namespace acs::inject {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kRetSlotBitflip: return "ret-slot-bitflip";
    case FaultKind::kChainCorrupt: return "chain-corrupt";
    case FaultKind::kInstrSkip: return "instr-skip";
    case FaultKind::kKeyPerturb: return "key-perturb";
    case FaultKind::kSigFrameTrash: return "sig-frame-trash";
    case FaultKind::kBudgetExhaust: return "budget-exhaust";
    case FaultKind::kStoreWord: return "store-word";
  }
  return "unknown";
}

u64 mean_interval_for_rate(double faults_per_million, const char* what) {
  // Intervals stay below 2^63: the renewal draw doubles them into its
  // u64 bound.
  constexpr double kMaxInterval = 9223372036854775808.0;
  const auto reject = [&](const char* why) {
    throw std::invalid_argument(std::string(what) + " = " +
                                std::to_string(faults_per_million) + ": " +
                                why);
  };
  if (!std::isfinite(faults_per_million)) reject("not a finite rate");
  if (faults_per_million < 0) reject("negative rate");
  if (faults_per_million == 0) return 0;
  if (faults_per_million > 1e6) {
    reject("above 1e6 faults per million instructions");
  }
  const double interval = 1e6 / faults_per_million;
  if (!(interval < kMaxInterval)) reject("rate too small: interval overflows");
  return static_cast<u64>(interval);
}

PlanCursor::PlanCursor(const PlanConfig& config)
    : kinds_(config.kinds), max_depth_(config.max_depth) {
  if (config.horizon == 0) return;
  const bool burst = config.burst_len != 0 &&
                     config.burst_mean_interval != 0 &&
                     config.burst_start < config.horizon;
  Rng rng(config.seed);
  if (config.mean_interval != 0) {
    baseline_ = {.rng = rng, .t = 0, .end = config.horizon,
                 .mean_interval = config.mean_interval, .live = true};
    if (burst) {
      // The burst draws after the whole baseline: reach that RNG state by
      // running the baseline on a copy and discarding its faults.
      Renewal skip = baseline_;
      while (skip.live) advance(skip);
      rng = skip.rng;
    }
    advance(baseline_);
  }
  if (burst) {
    // Clamp without overflow: horizon - burst_start cannot underflow here
    // (burst_start < horizon), while burst_start + burst_len could wrap.
    const u64 burst_end =
        config.horizon - config.burst_start > config.burst_len
            ? config.burst_start + config.burst_len
            : config.horizon;
    burst_ = {.rng = rng, .t = config.burst_start, .end = burst_end,
              .mean_interval = config.burst_mean_interval, .live = true};
    advance(burst_);
  }
}

void PlanCursor::advance(Renewal& process) const noexcept {
  // The random draw set deliberately excludes kStoreWord (which needs a
  // concrete target) and must stay exactly these six kinds in this order:
  // seeded campaigns are pinned bit-for-bit across the test suite.
  static constexpr FaultKind kAllKinds[] = {
      FaultKind::kRetSlotBitflip, FaultKind::kChainCorrupt,
      FaultKind::kInstrSkip,      FaultKind::kKeyPerturb,
      FaultKind::kSigFrameTrash,  FaultKind::kBudgetExhaust,
  };
  static_assert(std::size(kAllKinds) == kNumPlannableKinds);

  Rng& rng = process.rng;
  process.t += 1 + rng.next_below(2 * process.mean_interval);
  if (process.t >= process.end) {
    process.live = false;
    return;
  }
  PlannedFault& fault = process.head;
  fault.at_instr = process.t;
  fault.kind = kinds_.empty() ? kAllKinds[rng.next_below(kNumPlannableKinds)]
                              : kinds_[rng.next_below(kinds_.size())];
  fault.min_depth = max_depth_ == 0 ? 0 : rng.next_below(max_depth_);
  fault.payload = rng.next();
}

bool PlanCursor::next(PlannedFault& out) noexcept {
  // Merge by time, the baseline first on ties.
  Renewal* const from =
      burst_.live && (!baseline_.live ||
                      burst_.head.at_instr < baseline_.head.at_instr)
          ? &burst_
          : &baseline_;
  if (!from->live) return false;
  out = from->head;
  advance(*from);
  return true;
}

std::vector<PlannedFault> make_plan(const PlanConfig& config) {
  std::vector<PlannedFault> plan;
  PlanCursor cursor(config);
  for (PlannedFault fault; cursor.next(fault);) plan.push_back(fault);
  return plan;
}

}  // namespace acs::inject
