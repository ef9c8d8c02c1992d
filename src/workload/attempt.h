// The one supervised-attempt runner every forking workload shares (the
// topology's precomputed and on-demand attempts, the fault fleet).
//
// An attempt CoW-forks a pristine master image with its own machine seed
// (so its own keys, canaries and pids), runs it under a fault-injection
// engine built from `engine_config`, and classifies how it ended. It is a
// pure function of (master, seed, engine config, budget): the same inputs
// give the same outcome on any thread, at any time, which is what lets
// callers run some attempts ahead in parallel and the rest on demand and
// still be bitwise thread-invariant.
#pragma once

#include <string>

#include "common/types.h"
#include "inject/engine.h"
#include "kernel/machine.h"

namespace acs::obs {
class Recorder;
}

namespace acs::workload {

struct AttemptOutcome {
  u64 cycles = 0;     ///< the init process's simulated cycles
  u64 cow_pages = 0;  ///< pages the fork privatised by running
  u64 pid = 0;        ///< the fork's init pid (derived from its seed)
  /// Anything but a clean exit(0) within the instruction budget.
  bool crashed = false;
  /// A crash a supervisor only notices when its watchdog fires: the budget
  /// ran out, or an injected kInstrBudget fault killed the process.
  bool hung = false;
  kernel::ProcessState state = kernel::ProcessState::kLive;
  sim::FaultKind kill = sim::FaultKind::kNone;  ///< set when kKilled
  inject::Summary injected;  ///< faults the engine delivered
  u64 plan_entries_drawn = 0;  ///< plan entries the engine drew
};

/// Fork `master`, run the fork for at most `instr_budget` instructions
/// with an injector built from `engine_config` (an empty plan injects
/// nothing) and `recorder` (may be nullptr) attached, and classify it.
[[nodiscard]] AttemptOutcome run_attempt(const kernel::Machine& master,
                                         u64 machine_seed,
                                         inject::Engine::Config&& engine_config,
                                         u64 instr_budget,
                                         obs::Recorder* recorder = nullptr);

/// A crashed attempt's cause label: the kill fault's name, "hang" for a
/// process still live when the budget ran out, else "exit-nonzero".
[[nodiscard]] std::string crash_cause(const AttemptOutcome& outcome);

}  // namespace acs::workload
