#include "inject/engine.h"

#include <algorithm>

namespace acs::inject {

unsigned TaskInjector::guess_window() const noexcept {
  return engine_->guess_window();
}

void TaskInjector::record(FaultKind kind, bool guess_success) noexcept {
  engine_->record(kind, guess_success);
}

LevelCursor::LevelCursor(bool cpu_level, const PlanCursor& drawn,
                         std::vector<PlannedFault> built)
    : cpu_level_(cpu_level), plan_(drawn), built_(std::move(built)) {
  pull_drawn();
  refill();
}

void LevelCursor::pull_drawn() noexcept {
  do {
    plan_armed_ = plan_.next(plan_head_);
  } while (plan_armed_ && is_cpu_level(plan_head_.kind) != cpu_level_);
}

void LevelCursor::refill() noexcept {
  const bool have_built = built_next_ < built_.size();
  if (plan_armed_ &&
      (!have_built || plan_head_.at_instr <= built_[built_next_].at_instr)) {
    head_ = plan_head_;
    pull_drawn();
  } else if (have_built) {
    head_ = built_[built_next_++];
  } else {
    armed_ = false;
    return;
  }
  armed_ = true;
  ++drawn_count_;
}

PlannedFault LevelCursor::take() noexcept {
  const PlannedFault fault = head_;
  refill();
  return fault;
}

namespace {

/// Whether a plan drawn from `config` can hold faults of the given level:
/// a level none of whose kinds can be drawn never scans the plan.
bool draws_level(const PlanConfig& config, bool cpu_level) {
  // The default draw set (all six plannable kinds) spans both levels.
  if (config.kinds.empty()) return true;
  return std::any_of(config.kinds.begin(), config.kinds.end(),
                     [&](FaultKind kind) {
                       return is_cpu_level(kind) == cpu_level;
                     });
}

}  // namespace

Engine::Engine(Config config)
    : cpu_cursor_(this), guess_window_(config.guess_window) {
  const PlanCursor drawn(config.draw);
  const auto level = [&](bool cpu_level) {
    std::vector<PlannedFault> built;
    for (const PlannedFault& fault : config.plan) {
      if (is_cpu_level(fault.kind) == cpu_level) built.push_back(fault);
    }
    std::stable_sort(built.begin(), built.end(),
                     [](const PlannedFault& a, const PlannedFault& b) {
                       return a.at_instr < b.at_instr;
                     });
    return LevelCursor(
        cpu_level, draws_level(config.draw, cpu_level) ? drawn : PlanCursor{},
        std::move(built));
  };
  cpu_cursor_.faults_ = level(true);
  kernel_faults_ = level(false);
}

TaskInjector* Engine::attach() noexcept {
  if (attached_) return nullptr;
  attached_ = true;
  return &cpu_cursor_;
}

void Engine::record(FaultKind kind, bool guess_success) noexcept {
  ++summary_.injected[static_cast<std::size_t>(kind)];
  if (kind == FaultKind::kChainCorrupt) {
    ++summary_.guess_attempts;
    if (guess_success) ++summary_.guess_successes;
  }
}

}  // namespace acs::inject
