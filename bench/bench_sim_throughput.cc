// Simulator throughput: predecoded function-pointer dispatch vs the
// re-decode-per-step interpreter, plus the copy-on-write Machine fork
// path (see docs/simulator.md).
//
// This bench doubles as a differential test: every measured and swept run
// executes the same program under both dispatch modes and the process
// exits non-zero if any architectural outcome (output, exit code, cycles,
// instructions) ever diverges. The "sim" JSON section carries the
// deterministic fingerprint over all equivalence runs — bitwise identical
// for every --threads value (the bench_sim_invariance ctest pins this).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "common/table.h"
#include "compiler/codegen.h"
#include "compiler/ir.h"
#include "exec/parallel.h"
#include "kernel/machine.h"

namespace {

using namespace acs;

constexpr u64 kSeed = 0x51d0'cafe;

/// Call-heavy workload with PA-instrumented returns, locals and output:
/// three call layers so the hot loop spends its time in bl/ret/pacia/
/// retaa and loads/stores — the instruction mix the kernel model actually
/// runs, not a nop spin.
compiler::ProgramIr make_workload(u64 repeats) {
  compiler::IrBuilder b;
  const auto leaf = b.begin_function("leaf");
  b.compute(4);
  const auto mid = b.begin_function("mid", 32);
  b.store_local(0, 7);
  b.call(leaf, 8);
  b.load_local(0);
  const auto outer = b.begin_function("outer");
  b.call(mid, 8);
  const auto entry = b.begin_function("entry");
  b.call(outer, repeats);
  b.write_int(4242);
  return b.build(entry);
}

/// Dispatch-bound workload: a straight-line block of single-cycle compute
/// instructions in a leaf loop. ~97% of retired instructions are `work`,
/// so this mix isolates the fetch/dispatch loop itself — the cost the
/// predecoded path removes — rather than PA MACs or memory traffic.
compiler::ProgramIr make_alu_workload(u64 repeats) {
  compiler::IrBuilder b;
  const auto hot = b.begin_function("hot");
  for (int i = 0; i < 256; ++i) b.compute(1);
  const auto entry = b.begin_function("entry");
  b.call(hot, repeats);
  b.write_int(7);
  return b.build(entry);
}

/// Architectural outcome of one machine run, reduced to a comparable and
/// hashable record.
struct Outcome {
  kernel::ProcessState state = kernel::ProcessState::kLive;
  u64 exit_code = 0;
  std::vector<u64> output;
  u64 cycles = 0;
  u64 instructions = 0;

  bool operator==(const Outcome& other) const = default;

  [[nodiscard]] u64 fingerprint() const {
    u64 h = 0x9e37'79b9'7f4a'7c15ULL;
    const auto mix = [&h](u64 v) {
      u64 s = h ^ v;
      h = splitmix64(s);
    };
    mix(static_cast<u64>(state));
    mix(exit_code);
    mix(output.size());
    for (const u64 v : output) mix(v);
    mix(cycles);
    mix(instructions);
    return h;
  }
};

Outcome run_fork(const kernel::Machine& master, sim::DispatchMode mode,
                 u64 seed, u64 time_slice = 64) {
  kernel::MachineOptions options;
  options.dispatch = mode;
  options.seed = seed;
  options.time_slice = time_slice;
  kernel::Machine machine(master, options);
  machine.run();
  Outcome outcome;
  outcome.state = machine.init_process().state;
  outcome.exit_code = machine.init_process().exit_code;
  outcome.output = machine.init_process().output;
  outcome.cycles = machine.init_process().cycles();
  outcome.instructions = machine.total_instructions();
  return outcome;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      bench::parse_bench_args(argc, argv, "bench_sim_throughput");
  bench::BenchReporter reporter("bench_sim_throughput", options, kSeed);

  const u64 repeats = options.smoke ? 60 : 1500;
  const unsigned reps = options.smoke ? 3 : 32;
  const u64 sweep_trials = options.smoke ? 8 : 32;

  const auto ir = make_workload(repeats);
  const auto program =
      compiler::compile_ir(ir, {.scheme = compiler::Scheme::kPacStack});
  const kernel::Machine master(program, kernel::MachineOptions{});
  const auto alu_program = compiler::compile_ir(
      make_alu_workload(repeats * 2), {.scheme = compiler::Scheme::kPacStack});
  const kernel::Machine alu_master(alu_program, kernel::MachineOptions{});

  std::printf("simulator throughput — predecoded dispatch vs interpreter\n");
  std::printf("(calls: %llu x 3-deep PA-instrumented call tree; "
              "alu: straight-line single-cycle compute)\n\n",
              static_cast<unsigned long long>(repeats));

  bool diverged = false;
  bench::SimSection sim;

  // --- measured throughput, one (mix, mode) pair at a time ---------------
  struct Measured {
    double ips = 0;
    Outcome outcome;
  };
  const auto measure = [&](const kernel::Machine& mix_master,
                           sim::DispatchMode mode) {
    Measured m;
    u64 instructions = 0;
    const auto start = std::chrono::steady_clock::now();
    for (unsigned rep = 0; rep < reps; ++rep) {
      // The workloads are single-task, so the scheduling quantum cannot
      // change their architectural results (asserted below against a
      // default-quantum run); a server-sized quantum keeps the measurement
      // on the dispatch loop rather than the scheduler.
      m.outcome = run_fork(mix_master, mode, kSeed, 4096);
      instructions += m.outcome.instructions;
    }
    m.ips = static_cast<double>(instructions) / seconds_since(start);
    return m;
  };
  const Measured calls_interp =
      measure(master, sim::DispatchMode::kInterpreter);
  const Measured calls_decoded = measure(master, sim::DispatchMode::kDecoded);
  const Measured alu_interp =
      measure(alu_master, sim::DispatchMode::kInterpreter);
  const Measured alu_decoded =
      measure(alu_master, sim::DispatchMode::kDecoded);
  if (!(calls_interp.outcome == calls_decoded.outcome) ||
      !(alu_interp.outcome == alu_decoded.outcome)) {
    std::fprintf(stderr,
                 "FAIL: dispatch modes diverged on a measured workload\n");
    diverged = true;
  }
  // Quantum invariance: the measured (large-quantum) runs must match a
  // default-quantum run architecturally.
  if (!(run_fork(master, sim::DispatchMode::kInterpreter, kSeed) ==
        calls_interp.outcome)) {
    std::fprintf(stderr, "FAIL: scheduling quantum changed the outcome\n");
    diverged = true;
  }
  sim.instructions = calls_decoded.outcome.instructions;
  sim.ips_interpreter = calls_interp.ips;
  sim.ips_decoded = calls_decoded.ips;
  sim.speedup = calls_decoded.ips / calls_interp.ips;

  // --- CoW fork construction throughput ----------------------------------
  const unsigned fork_reps = options.smoke ? 200 : 2000;
  {
    const auto start = std::chrono::steady_clock::now();
    for (unsigned rep = 0; rep < fork_reps; ++rep) {
      kernel::Machine fork(master, kernel::MachineOptions{});
      (void)fork;
    }
    sim.forks_per_sec = fork_reps / seconds_since(start);
  }
  {
    kernel::Machine fork(master, kernel::MachineOptions{});
    fork.run();
    sim.cow_private_pages = fork.init_process().mem.private_pages();
  }

  // --- parallel equivalence sweep ----------------------------------------
  // Per-trial keys (trial-derived seed) under both modes; results folded
  // in trial order, so the fingerprint is thread-count invariant.
  struct TrialResult {
    u64 fp = 0;
    bool ok = false;
  };
  const auto trials = exec::parallel_map_trials<TrialResult>(
      sweep_trials, kSeed,
      [&](u64, u64 trial_seed) {
        const Outcome fast =
            run_fork(master, sim::DispatchMode::kDecoded, trial_seed);
        const Outcome ref =
            run_fork(master, sim::DispatchMode::kInterpreter, trial_seed);
        return TrialResult{fast.fingerprint(), fast == ref};
      },
      options.threads);
  u64 fingerprint = 0;
  for (const TrialResult& trial : trials) {
    u64 s = fingerprint ^ trial.fp;
    fingerprint = splitmix64(s);
    if (!trial.ok) diverged = true;
  }
  sim.equivalence_runs = 2 * sweep_trials;
  sim.equivalence_fingerprint = bench::Hex64{fingerprint};

  const double alu_speedup = alu_decoded.ips / alu_interp.ips;
  Table table({"workload", "path", "instr/sec", "speedup"});
  char buffer[64];
  const auto add_row = [&](const char* mix, const char* label,
                           const Measured& m, double speedup) {
    std::snprintf(buffer, sizeof buffer, "%.3g", m.ips);
    table.add_row({mix, label, buffer,
                   speedup > 0 ? Table::fmt(speedup, 2) + "x" : "1x"});
  };
  add_row("calls", "interpreter", calls_interp, 0);
  add_row("calls", "decoded", calls_decoded, sim.speedup);
  add_row("alu", "interpreter", alu_interp, 0);
  add_row("alu", "decoded", alu_decoded, alu_speedup);
  table.print(std::cout);
  std::printf("\nforks/sec %.3g, private pages after run %llu, "
              "equivalence runs %llu, fingerprint 0x%016llx\n",
              sim.forks_per_sec,
              static_cast<unsigned long long>(sim.cow_private_pages),
              static_cast<unsigned long long>(sim.equivalence_runs),
              static_cast<unsigned long long>(fingerprint));

  reporter.record("ips_interpreter", sim.ips_interpreter, "instr/s");
  reporter.record("ips_decoded", sim.ips_decoded, "instr/s");
  reporter.record("dispatch_speedup", sim.speedup, "ratio");
  reporter.record("ips_interpreter_alu", alu_interp.ips, "instr/s");
  reporter.record("ips_decoded_alu", alu_decoded.ips, "instr/s");
  reporter.record("dispatch_speedup_alu", alu_speedup, "ratio");
  reporter.record("forks_per_sec", sim.forks_per_sec, "forks/s");
  reporter.set_section(sim);
  if (!reporter.finish()) return 1;

  if (diverged) {
    std::fprintf(stderr, "FAIL: dispatch-mode divergence detected\n");
    return 1;
  }
  std::printf("dispatch modes bitwise equivalent across %llu runs\n",
              static_cast<unsigned long long>(sim.equivalence_runs));
  return 0;
}
