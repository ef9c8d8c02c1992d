#include "workload/attempt.h"

#include "sim/fault.h"

namespace acs::workload {

AttemptOutcome run_attempt(const kernel::Machine& master, u64 machine_seed,
                           inject::Engine::Config&& engine_config,
                           u64 instr_budget, obs::Recorder* recorder) {
  inject::Engine engine(std::move(engine_config));
  kernel::MachineOptions options;
  options.seed = machine_seed;
  options.recorder = recorder;
  options.injector = &engine;
  kernel::Machine machine(master, options);
  const kernel::Stop stop = machine.run(instr_budget);
  const auto& process = machine.init_process();

  AttemptOutcome outcome;
  outcome.cycles = process.cycles();
  outcome.cow_pages = process.mem.private_pages();
  outcome.pid = process.pid();
  outcome.state = process.state;
  outcome.kill = process.kill_fault.kind;
  const bool out_of_budget =
      stop.reason == kernel::StopReason::kMaxInstructions;
  outcome.crashed = out_of_budget ||
                    process.state != kernel::ProcessState::kExited ||
                    process.exit_code != 0;
  outcome.hung = out_of_budget ||
                 (process.state == kernel::ProcessState::kKilled &&
                  process.kill_fault.kind == sim::FaultKind::kInstrBudget);
  outcome.injected = engine.summary();
  outcome.plan_entries_drawn = engine.drawn();
  return outcome;
}

std::string crash_cause(const AttemptOutcome& outcome) {
  switch (outcome.state) {
    case kernel::ProcessState::kKilled: return sim::fault_name(outcome.kill);
    case kernel::ProcessState::kLive: return "hang";
    case kernel::ProcessState::kExited: break;
  }
  return "exit-nonzero";
}

}  // namespace acs::workload
