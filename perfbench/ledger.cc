// The traced run: a per-layer cost ledger.
//
//  1. Unit costs: each layer's public call timed in isolation (median of
//     several repetitions), the same in every workload's traced run.
//  2. A batch of the workload's own ops, run untraced at the benchmark's
//     thread count, again with spans (and exact obs counters), and, where
//     ops run on exec threads, again at one thread: obs.trace_overhead and
//     exec.scaling.
//  3. Exact work counts of the batch (spec_sim) or of a replay of one op
//     (serve_storm) times the unit costs, against the measured CPU time:
//     the closure check. A layer a workload never enters reports 0.
//     The replay is checked against the program's own results, and its
//     closure is reported, not enforced.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>

#include "bench.h"
#include "common/rng.h"
#include "compiler/codegen.h"
#include "core/chain.h"
#include "crypto/keys.h"
#include "crypto/siphash.h"
#include "exec/parallel.h"
#include "inject/engine.h"
#include "inject/plan.h"
#include "kernel/machine.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "pa/pointer_auth.h"
#include "workload/nginx_sim.h"
#include "workload/serving.h"
#include "workload/spec_suite.h"
#include "workloads.h"

namespace perfbench {

using namespace acs;

namespace {

/// Unit costs may over-explain a workload's CPU time by at most this
/// share before the ledger is declared wrong. Wide, because unit costs and
/// the workload are timed seconds apart and host speed drifts by tens of
/// percent over seconds on shared hosts. Enforced where the counts come
/// from the program itself (mc_security, spec_sim); on serve_storm they
/// come from the replay of stage 1, which a change to stage 1 makes stale,
/// so there the closure is only reported.
constexpr double kClosureBound = 0.5;

/// topology.cc's stage-1 seed salt, mirrored so that an op can be
/// replayed attempt by attempt.
constexpr u64 kTopoRequestSalt = 0x746f'706f'2672'6571ULL;

/// Op id of spans outside the workload's ops.
constexpr u64 kProbeOp = ~u64{0};

/// Share of --seconds spent on the untraced batch.
constexpr double kBatchShare = 0.15;

volatile u64 g_sink = 0;  // keeps probe results observable

/// Median of `reps` samples of fn(), which returns the seconds it timed.
double median_of(int reps, const std::function<double()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) samples.push_back(fn());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Median seconds of `reps` timed calls of fn().
double median_time(int reps, const std::function<void()>& fn) {
  return median_of(reps, [&] {
    const double t0 = wall_now();
    fn();
    return wall_now() - t0;
  });
}

struct UnitCosts {
  double siphash_ns = 0;
  double pac_ns = 0;
  double aut_ns = 0;
  double chain_op_ns = 0;
  double compile_us = 0;
  double machine_ctor_us = 0;
  double fork_us = 0;
  double make_plan_us = 0;
  double engine_ctor_us = 0;
  double base_ns_per_instr = 0;     ///< run_fast, call-sparse baseline
  double stepped_ns_per_instr = 0;  ///< step() path, empty-plan injector
  double injector_slowdown = 0;
  std::vector<std::pair<std::string, double>> us_per_trial;
};

/// The plan configuration of a serve_storm attempt, as topology.cc's
/// stage 1 draws it.
inject::PlanConfig attempt_plan(const workload::TopologyConfig& config,
                                u64 seed, bool stormed) {
  inject::PlanConfig plan;
  plan.seed = seed;
  plan.horizon = config.attempt_instr_budget;
  plan.kinds = config.fault_kinds;
  if (config.faults_per_million > 0) {
    plan.mean_interval = static_cast<u64>(1e6 / config.faults_per_million);
  }
  if (stormed) {
    plan.burst_start = 0;
    plan.burst_len = config.attempt_instr_budget;
    plan.burst_mean_interval =
        static_cast<u64>(1e6 / config.storm_faults_per_million);
  }
  return plan;
}

/// Outcome of one replayed attempt.
struct AttemptRun {
  u64 instructions = 0;
  double seconds = 0;
};

AttemptRun run_attempt(const kernel::Machine& master, u64 machine_seed,
                       inject::Engine* engine, u64 budget) {
  kernel::MachineOptions options;
  options.seed = machine_seed;
  options.injector = engine;
  kernel::Machine machine(master, options);
  const double t0 = wall_now();
  (void)machine.run(budget);
  AttemptRun run;
  run.seconds = wall_now() - t0;
  run.instructions = machine.init_process().instructions();
  return run;
}

UnitCosts measure_unit_costs(Tracer& tracer) {
  UnitCosts c;
  Rng rng(0x1ed9e7);
  const crypto::KeySet keys = crypto::random_key_set(rng);
  const pa::PointerAuth pauth(keys, pa::VaLayout{39});
  constexpr int kReps = 5;

  {
    ScopedSpan span(&tracer, "probe.crypto.siphash24_pair", kProbeOp);
    constexpr u64 n = 1 << 18;
    c.siphash_ns = median_time(kReps, [&] {
      u64 v = 1;
      for (u64 i = 0; i < n; ++i) {
        v = crypto::siphash24_pair(keys.keys[0], v, i);
      }
      g_sink = v;
    }) / n * 1e9;
  }
  {
    ScopedSpan span(&tracer, "probe.pa.pac_aut", kProbeOp);
    constexpr u64 n = 1 << 17;
    std::vector<u64> signed_ptrs(n);
    c.pac_ns = median_time(kReps, [&] {
      for (u64 i = 0; i < n; ++i) {
        signed_ptrs[i] = pauth.pac(crypto::KeyId::kIA, 0x400000 + 4 * i, i);
      }
      g_sink = signed_ptrs[n - 1];
    }) / n * 1e9;
    c.aut_ns = median_time(kReps, [&] {
      u64 ok = 0;
      for (u64 i = 0; i < n; ++i) {
        ok += pauth.aut(crypto::KeyId::kIA, signed_ptrs[i], i).ok ? 1 : 0;
      }
      g_sink = ok;
    }) / n * 1e9;
  }
  {
    ScopedSpan span(&tracer, "probe.core.chain_call_ret", kProbeOp);
    constexpr u64 n = 1 << 16;
    c.chain_op_ns = median_time(kReps, [&] {
      core::AcsChain chain(pauth, /*masking=*/true);
      u64 ok = 0;
      for (u64 i = 0; i < n; ++i) {
        chain.call(0x400000 + 4 * (i & 1023));
        ok += chain.ret().ok ? 1 : 0;
      }
      g_sink = ok;
    }) / n * 1e9;
  }

  std::vector<compiler::ProgramIr> irs;
  for (const auto& bench : workload::spec_suite()) {
    irs.push_back(workload::make_spec_ir(bench));
  }
  {
    ScopedSpan span(&tracer, "probe.compiler.compile_ir", kProbeOp);
    c.compile_us = median_time(kReps, [&] {
      for (const auto& ir : irs) {
        g_sink = compiler::compile_ir(ir, {.scheme = compiler::Scheme::kPacStack})
                     .code.size();
      }
    }) / static_cast<double>(irs.size()) * 1e6;
  }
  {
    ScopedSpan span(&tracer, "probe.kernel.machine_ctor", kProbeOp);
    const sim::Program program = compiler::compile_ir(
        irs.front(), {.scheme = compiler::Scheme::kPacStack});
    constexpr int n = 200;
    c.machine_ctor_us = median_time(kReps, [&] {
      for (int i = 0; i < n; ++i) {
        kernel::MachineOptions options;
        options.seed = static_cast<u64>(i) + 1;
        kernel::Machine machine(program, options);
        g_sink = machine.init_process().pid();
      }
    }) / n * 1e6;
  }
  {
    // Base dispatch cost: the suite's baseline-scheme programs (no PA
    // instructions) on run_fast.
    ScopedSpan span(&tracer, "probe.sim.base_dispatch", kProbeOp);
    std::vector<sim::Program> programs;
    for (const auto& ir : irs) {
      programs.push_back(
          compiler::compile_ir(ir, {.scheme = compiler::Scheme::kNone}));
    }
    u64 instructions = 0;
    const double t = median_time(kReps, [&] {
      instructions = 0;
      for (const auto& program : programs) {
        kernel::Machine machine(program, kernel::MachineOptions{});
        (void)machine.run();
        instructions += machine.init_process().instructions();
      }
    });
    c.base_ns_per_instr = t / static_cast<double>(instructions) * 1e9;
  }

  // serve_storm's attempt: a small-class request master, stormed plans.
  const workload::TopologyConfig topo = [] {
    workload::TopologyConfig config;
    config.storm_faults_per_million = 8000;
    config.fault_kinds = {inject::FaultKind::kBudgetExhaust};
    return config;
  }();
  const auto& small = workload::default_service_classes().front();
  const kernel::Machine master(
      compiler::compile_ir(workload::make_request_ir(small.work_units, 7),
                           {.scheme = compiler::Scheme::kPacStack}),
      kernel::MachineOptions{});
  {
    ScopedSpan span(&tracer, "probe.kernel.fork", kProbeOp);
    constexpr int n = 500;
    c.fork_us = median_time(kReps, [&] {
      for (int i = 0; i < n; ++i) {
        kernel::MachineOptions options;
        options.seed = static_cast<u64>(i) + 1;
        kernel::Machine fork(master, options);
        g_sink = fork.init_process().pid();
      }
    }) / n * 1e6;
  }
  {
    ScopedSpan span(&tracer, "probe.inject.make_plan", kProbeOp);
    constexpr int n = 40;
    c.make_plan_us = median_time(kReps, [&] {
      for (int i = 0; i < n; ++i) {
        g_sink = inject::make_plan(
                     attempt_plan(topo, static_cast<u64>(i) + 1, true))
                     .size();
      }
    }) / n * 1e6;
  }
  {
    ScopedSpan span(&tracer, "probe.inject.engine_ctor", kProbeOp);
    constexpr int n = 40;
    c.engine_ctor_us = median_of(kReps, [&] {
      std::vector<inject::Engine::Config> configs(n);
      for (int i = 0; i < n; ++i) {
        configs[static_cast<std::size_t>(i)].plan =
            inject::make_plan(attempt_plan(topo, static_cast<u64>(i) + 1, true));
      }
      const double t0 = wall_now();
      for (auto& config : configs) {
        const inject::Engine engine(std::move(config));
        g_sink = engine.guess_window();
      }
      return wall_now() - t0;
    }) / n * 1e6;
  }
  {
    // The injector's cost alone: one attempt with an empty-plan engine
    // attached (step path) against the same attempt without (run_fast).
    ScopedSpan span(&tracer, "probe.sim.injector_slowdown", kProbeOp);
    constexpr int n = 200;
    u64 instructions = 0;
    const auto batch = [&](bool injected) {
      double seconds = 0;
      instructions = 0;
      for (int i = 0; i < n; ++i) {
        inject::Engine engine(inject::Engine::Config{});
        const AttemptRun run =
            run_attempt(master, static_cast<u64>(i) + 1,
                        injected ? &engine : nullptr, topo.attempt_instr_budget);
        seconds += run.seconds;
        instructions += run.instructions;
      }
      return seconds;
    };
    std::vector<double> ratios;
    double stepped = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double fast = batch(false);
      stepped = batch(true);
      ratios.push_back(stepped / fast);
    }
    std::sort(ratios.begin(), ratios.end());
    c.injector_slowdown = ratios[ratios.size() / 2];
    c.stepped_ns_per_instr = stepped / static_cast<double>(instructions) * 1e9;
  }
  // One call per Monte Carlo experiment at one thread and a quarter of
  // its op's trial count; every traced run reports the same ledger.
  const Pins none;
  McSecurity experiments(1, none);
  experiments.setup();
  for (const auto& config : experiments.configs()) {
    ScopedSpan span(&tracer, ("probe.attack." + config.key).c_str(), kProbeOp);
    const u64 trials = std::max<u64>(config.trials / 4, 64);
    const double t0 = wall_now();
    g_sink = config.run(config.b, trials, McSecurity::pool_seed(config, 0), 1);
    c.us_per_trial.emplace_back(
        config.key, (wall_now() - t0) / static_cast<double>(trials) * 1e6);
  }
  return c;
}

/// One replayed stage-1 attempt.
struct ReplayAttempt {
  u64 request = 0;
  unsigned tier = 0;
  bool stormed = false;
  bool crashed = false;
  u64 cycles = 0;  ///< at least 1, as stage 1 records it (hangs not charged)
  u64 cow_pages = 0;
};

/// Exact counts of one serve_storm op, replayed attempt by attempt the
/// way topology.cc's stage 1 precomputes them at this commit. The replay
/// is a copy of that stage, not the program: replay_matches() checks it
/// against the program's own results.
struct ServeReplay {
  u64 masters = 0;
  u64 calibration_instr = 0;
  u64 mean_service_cycles = 0;
  u64 attempts = 0;
  u64 stormed = 0;
  u64 plan_entries = 0;
  u64 delivered = 0;
  u64 attempt_instr = 0;
  u64 cow_pages = 0;
  double run_seconds = 0;
  obs::Metrics counts;
  std::vector<ReplayAttempt> log;  ///< in request, tier, slot order
};

u64 pick_class(const std::vector<workload::ServiceClass>& classes, Rng& rng) {
  u64 total = 0;
  for (const auto& cls : classes) total += cls.weight_permille;
  u64 roll = rng.next_below(std::max<u64>(1, total));
  for (u64 i = 0; i < classes.size(); ++i) {
    if (roll < classes[i].weight_permille) return i;
    roll -= classes[i].weight_permille;
  }
  return 0;
}

ServeReplay replay_serve_op(compiler::Scheme scheme,
                            const workload::TopologyConfig& config,
                            Tracer& tracer, u64 op) {
  ServeReplay r;
  const auto& classes = workload::default_service_classes();
  const u64 base = config.seed ^ kTopoRequestSalt;
  u64 jitter = base;
  std::deque<kernel::Machine> masters;
  {
    ScopedSpan span(&tracer, "compiler.compile_ir", op);
    for (const auto& cls : classes) {
      masters.emplace_back(
          compiler::compile_ir(
              workload::make_request_ir(cls.work_units, splitmix64(jitter)),
              {.scheme = scheme}),
          kernel::MachineOptions{});
    }
  }
  r.masters = masters.size();
  u64 weight_total = 0;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    kernel::MachineOptions options;
    options.seed = exec::trial_seed(base, i);
    kernel::Machine probe(masters[i], options);
    (void)probe.run(config.attempt_instr_budget);
    r.calibration_instr += probe.init_process().instructions();
    r.mean_service_cycles +=
        probe.init_process().cycles() * classes[i].weight_permille;
    weight_total += classes[i].weight_permille;
  }
  r.mean_service_cycles /= std::max<u64>(1, weight_total);

  const bool storm = config.storm_faults_per_million > 0 &&
                     config.storm_end_permille > config.storm_begin_permille;
  const unsigned slots = config.max_restarts + 1 +
                         (config.hedge_after_cycles > 0 ? 1 : 0);
  obs::Recorder recorder;
  for (u64 request = 0; request < config.requests; ++request) {
    Rng seeder(exec::trial_seed(base, request));
    const u64 slot_salt = seeder.next();
    const u64 cls = pick_class(classes, seeder);
    for (unsigned t = 0; t < config.tiers; ++t) {
      for (unsigned a = 0; a < slots; ++a) {
        const u64 idx = (static_cast<u64>(t) * slots + a) * 2;
        for (const bool stormed : {false, true}) {
          if (stormed && !(storm && t == config.storm_tier)) continue;
          const u64 i = idx + (stormed ? 1 : 0);
          const inject::PlanConfig plan = attempt_plan(
              config, exec::trial_seed(slot_salt ^ 0xfa, i), stormed);
          inject::Engine::Config engine_config;
          if (plan.mean_interval != 0 || plan.burst_mean_interval != 0) {
            ScopedSpan span(&tracer, "inject.make_plan", op);
            engine_config.plan = inject::make_plan(plan);
          }
          r.plan_entries += engine_config.plan.size();
          std::unique_ptr<inject::Engine> engine;
          {
            ScopedSpan span(&tracer, "inject.engine_ctor", op);
            engine = std::make_unique<inject::Engine>(std::move(engine_config));
          }
          kernel::MachineOptions options;
          options.seed = exec::trial_seed(slot_salt, i);
          options.injector = engine.get();
          options.recorder = &recorder;
          std::unique_ptr<kernel::Machine> machine;
          {
            ScopedSpan span(&tracer, "kernel.fork", op);
            machine = std::make_unique<kernel::Machine>(masters[cls], options);
          }
          kernel::Stop stop;
          {
            ScopedSpan span(&tracer, "sim.run", op);
            const double t0 = wall_now();
            stop = machine->run(config.attempt_instr_budget);
            r.run_seconds += wall_now() - t0;
          }
          const auto& process = machine->init_process();
          ReplayAttempt attempt;
          attempt.request = request;
          attempt.tier = t;
          attempt.stormed = stormed;
          attempt.crashed =
              stop.reason == kernel::StopReason::kMaxInstructions ||
              process.state != kernel::ProcessState::kExited ||
              process.exit_code != 0;
          attempt.cycles = std::max<u64>(1, process.cycles());
          attempt.cow_pages = process.mem.private_pages();
          r.log.push_back(attempt);
          r.attempt_instr += process.instructions();
          r.cow_pages += attempt.cow_pages;
          r.delivered += engine->summary().total_injected();
          ++r.attempts;
          r.stormed += stormed ? 1 : 0;
        }
      }
    }
  }
  r.counts = recorder.metrics();
  return r;
}

/// Checks the replay against the program. In two configurations derived
/// from `config` every dispatch is known from the replay alone: one try
/// per tier, spare workers, almost no load and no deadline, so an attempt
/// starts the moment its request reaches the tier, and a crash ends the
/// request. The program's fork, crash and CoW counts must then equal the
/// replay's. Without a storm no attempt crashes, and the latency sum must
/// equal the replay's cycles. With a storm over the whole run on a single
/// pool per tier, every tier-0 attempt is a stormed one, and its plan
/// decides whether the request goes on to tier 1.
bool replay_matches(compiler::Scheme scheme, workload::TopologyConfig config,
                    Tracer& tracer, u64 op) {
  workload::apply_mitigation(config, workload::Mitigation::kNone);
  config.max_restarts = 0;
  config.hedge_after_cycles = 0;
  config.workers_per_pool = 64;
  config.load_percent = 1;
  config.queue_capacity = config.requests;
  config.deadline_cycles = u64{1} << 62;
  config.faults_per_million = 0;
  bool ok = true;
  for (const bool storm : {false, true}) {
    workload::TopologyConfig c = config;
    if (storm) {
      c.pools_per_tier = 1;
      c.storm_tier = 0;
      c.storm_pool = 0;
      c.storm_begin_permille = 0;
      c.storm_end_permille = 1000;
      // Mild enough that the plan seeds decide which attempts survive.
      c.storm_faults_per_million = 500;
    } else {
      c.storm_faults_per_million = 0;
    }
    const workload::TopologyResult result =
        workload::run_topology_simulation(scheme, c);
    const ServeReplay r = replay_serve_op(scheme, c, tracer, op);
    u64 forks = 0, crashed = 0, cow = 0, cycles = 0, completed = 0;
    std::size_t k = 0;
    for (u64 request = 0; request < c.requests; ++request) {
      bool alive = true;
      for (unsigned t = 0; t < c.tiers; ++t) {
        for (const bool stormed : {false, true}) {
          if (stormed && !(storm && t == 0)) continue;
          const ReplayAttempt& a = r.log.at(k++);
          if (a.request != request || a.tier != t || a.stormed != stormed) {
            std::fprintf(stderr, "[perfbench] replay log out of order\n");
            return false;
          }
          if (!alive || stormed != (storm && t == 0)) continue;
          ++forks;
          cow += a.cow_pages;
          cycles += a.cycles;
          crashed += a.crashed ? 1 : 0;
          alive = !a.crashed;
        }
      }
      completed += alive ? 1 : 0;
    }
    const bool same =
        k == r.log.size() && result.forks == forks &&
        result.crashed_attempts == crashed &&
        result.cow_pages_copied == cow && result.completed == completed &&
        (storm || result.latency.sum() == cycles);
    std::fprintf(stderr,
                 "[perfbench] replay vs program (%s): forks %llu/%llu, "
                 "crashed %llu/%llu, cow pages %llu/%llu, completed "
                 "%llu/%llu%s\n",
                 storm ? "storm" : "no storm",
                 static_cast<unsigned long long>(forks),
                 static_cast<unsigned long long>(result.forks),
                 static_cast<unsigned long long>(crashed),
                 static_cast<unsigned long long>(result.crashed_attempts),
                 static_cast<unsigned long long>(cow),
                 static_cast<unsigned long long>(result.cow_pages_copied),
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(result.completed),
                 same ? "" : "  ** FAILED: replay diverged from topology.cc **");
    if (!storm && result.latency.sum() != cycles) {
      std::fprintf(stderr, "[perfbench] latency sum %llu vs replay %llu\n",
                   static_cast<unsigned long long>(result.latency.sum()),
                   static_cast<unsigned long long>(cycles));
    }
    ok = ok && same;
  }
  return ok;
}

u64 total_instr(const obs::Metrics& m) {
  u64 total = 0;
  for (const char* cls : {"alu", "branch", "mem", "pa", "svc", "other"}) {
    total += m.counter(std::string("sim.instr.") + cls);
  }
  return total;
}

/// Sign-type and auth-type PA ops in obs counters.
std::pair<u64, u64> pa_ops(const obs::Metrics& m) {
  return {m.counter("pa.sign") + m.counter("pa.generic"),
          m.counter("pa.auth.ok") + m.counter("pa.auth.fail")};
}

struct Batch {
  double wall = 0;
  double cpu = 0;
  u64 failed = 0;
  std::vector<OpOutcome> outcomes;
};

/// Ops 0, 1, ... of the workload: at least `ops` of them, and more until
/// `min_seconds` have passed.
Batch run_batch(Workload& workload, u64 ops, unsigned threads, Tracer* tracer,
                obs::Metrics* counts, double min_seconds = 0) {
  Batch batch;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  for (u64 i = 0; i < ops || wall_now() - w0 < min_seconds; ++i) {
    std::unique_ptr<ScopedSpan> root;
    if (tracer != nullptr) {
      root = std::make_unique<ScopedSpan>(tracer, "perfbench.op", i);
    }
    batch.outcomes.push_back(workload.run_op(i, threads, tracer, counts));
    batch.failed += batch.outcomes.back().ok ? 0 : 1;
  }
  batch.wall = wall_now() - w0;
  batch.cpu = cpu_now() - c0;
  return batch;
}

}  // namespace

bool traced_run(Workload& workload, unsigned threads, double seconds,
                const std::string& trace_path, std::vector<Metric>& out,
                u64& attempted, u64& failed) {
  Tracer tracer;
  auto* mc = dynamic_cast<McSecurity*>(&workload);
  auto* spec = dynamic_cast<SpecSim*>(&workload);
  auto* serve = dynamic_cast<ServeStorm*>(&workload);
  const unsigned op_threads = workload.threaded() ? threads : 1;

  const UnitCosts costs = measure_unit_costs(tracer);

  // The batch: whole rounds at least, sized by time.
  const Batch untraced = run_batch(workload, workload.round_ops(), op_threads,
                                   nullptr, nullptr, kBatchShare * seconds);
  const u64 ops = untraced.outcomes.size();
  obs::Metrics counts;
  const Batch traced = run_batch(workload, ops, op_threads, &tracer,
                                 spec != nullptr ? &counts : nullptr);
  // exec.scaling only where the workload's ops run on exec threads.
  double scaling = 0;
  attempted = 2 * ops;
  failed = untraced.failed + traced.failed;
  if (workload.threaded()) {
    const Batch single = run_batch(workload, ops, 1, nullptr, nullptr);
    scaling = single.wall / untraced.wall;
    attempted += ops;
    failed += single.failed;
  }

  // Work accounting and closure.
  double explained = 0;
  double cpu = untraced.cpu;
  double pa_per_kinstr = 0, pa_share = 0, ns_per_instr = 0, mem_share = 0;
  double cow_per_attempt = 0, plan_entries = 0, consumed = 0, inject_share = 0;
  double precomputed = 0, dispatched = 0;
  bool replay_ok = true;
  bool enforce_closure = true;
  if (mc != nullptr) {
    std::map<std::string, double> us;
    for (const auto& [key, value] : costs.us_per_trial) us[key] = value;
    for (const OpOutcome& o : untraced.outcomes) {
      explained += o.work * us[o.key.substr(0, o.key.find('#'))] * 1e-6;
    }
  } else if (spec != nullptr) {
    const u64 instr = total_instr(counts);
    const auto [signs, auths] = pa_ops(counts);
    const u64 pa_instr = counts.counter("sim.instr.pa");
    pa_per_kinstr = 1e3 * static_cast<double>(signs + auths) /
                    static_cast<double>(instr);
    const double pa_seconds = (static_cast<double>(signs) * costs.pac_ns +
                               static_cast<double>(auths) * costs.aut_ns) *
                              1e-9;
    pa_share = pa_seconds / untraced.wall;
    ns_per_instr = untraced.wall / static_cast<double>(instr) * 1e9;
    mem_share = static_cast<double>(counts.counter("sim.instr.mem")) /
                static_cast<double>(instr);
    explained = static_cast<double>(ops) * costs.machine_ctor_us * 1e-6 +
                pa_seconds +
                static_cast<double>(instr - pa_instr) *
                    costs.base_ns_per_instr * 1e-9;
  } else if (serve != nullptr) {
    // One op at one thread, timed (median of three), then replayed
    // attempt by attempt; the replay is checked against the program.
    const auto config = serve->topology(0, 1);
    const auto scheme = serve->config_of(0).scheme;
    workload::TopologyResult result;
    cpu = median_of(3, [&] {
      const double c0 = cpu_now();
      result = workload::run_topology_simulation(scheme, config);
      return cpu_now() - c0;
    });
    const ServeReplay r = replay_serve_op(scheme, config, tracer, kProbeOp - 1);
    replay_ok = replay_matches(scheme, config, tracer, kProbeOp - 2);
    if (r.mean_service_cycles != result.mean_service_cycles) {
      std::fprintf(stderr,
                   "[perfbench] serve_storm replay diverged: mean service "
                   "%llu vs %llu cycles\n",
                   static_cast<unsigned long long>(r.mean_service_cycles),
                   static_cast<unsigned long long>(result.mean_service_cycles));
      replay_ok = false;
    }
    enforce_closure = false;
    const u64 instr = r.attempt_instr;
    const auto [signs, auths] = pa_ops(r.counts);
    pa_per_kinstr = 1e3 * static_cast<double>(signs + auths) /
                    static_cast<double>(instr);
    pa_share = (static_cast<double>(signs) * costs.pac_ns +
                static_cast<double>(auths) * costs.aut_ns) *
               1e-9 / cpu;
    ns_per_instr = r.run_seconds / static_cast<double>(instr) * 1e9;
    mem_share = static_cast<double>(r.counts.counter("sim.instr.mem")) /
                static_cast<double>(total_instr(r.counts));
    precomputed = static_cast<double>(r.attempts);
    dispatched = static_cast<double>(result.forks);
    cow_per_attempt = static_cast<double>(r.cow_pages) / precomputed;
    plan_entries = static_cast<double>(r.plan_entries);
    consumed = static_cast<double>(r.delivered) / plan_entries;
    const double inject_seconds =
        static_cast<double>(r.stormed) *
        (costs.make_plan_us + costs.engine_ctor_us) * 1e-6;
    inject_share = inject_seconds / cpu;
    explained = static_cast<double>(r.masters) * costs.compile_us * 1e-6 +
                static_cast<double>(r.calibration_instr) *
                    costs.base_ns_per_instr * 1e-9 +
                precomputed * costs.fork_us * 1e-6 + inject_seconds +
                static_cast<double>(instr) * costs.stepped_ns_per_instr * 1e-9;
  }
  const double residual = 1.0 - explained / cpu;
  const bool closed =
      !enforce_closure || explained <= cpu * (1.0 + kClosureBound);
  std::fprintf(stderr,
               "[perfbench] closure: unit costs x counts explain %.4f s of "
               "%.4f s CPU (residual %.1f%%, over-explain bound %.0f%%%s)%s\n",
               explained, cpu, residual * 100, kClosureBound * 100,
               enforce_closure ? "" : ", not enforced: counts from the replay",
               closed ? "" : "  ** FAILED: a unit cost is mis-measured **");

  // Self time per layer over every recorded span: the traced batch, the
  // unit-cost probes ("probe") and the serve_storm replay.
  const auto self = tracer.self_seconds();
  double total = 0;
  for (const auto& [layer, busy] : self) total += busy;
  std::fprintf(stderr, "[perfbench] self time by layer (traced run):\n");
  for (const auto& [layer, busy] : self) {
    std::fprintf(stderr, "  %-12s %10.4f s  %6.2f%%\n", layer.c_str(), busy,
                 busy / total * 100);
  }
  if (!tracer.write_chrome(trace_path)) {
    std::fprintf(stderr, "[perfbench] cannot write %s\n", trace_path.c_str());
    return false;
  }
  std::fprintf(stderr, "[perfbench] spans: %s (%zu spans)\n",
               trace_path.c_str(), tracer.spans().size());

  out = {
      {"crypto.siphash_ns", costs.siphash_ns, "ns"},
      {"pa.pac_ns", costs.pac_ns, "ns"},
      {"pa.aut_ns", costs.aut_ns, "ns"},
      {"pa.ops_per_kinstr", pa_per_kinstr, "1/kinstr"},
      {"pa.est_share", pa_share, "ratio"},
      {"core.chain_op_ns", costs.chain_op_ns, "ns"},
      {"compiler.compile_us", costs.compile_us, "us"},
      {"kernel.machine_ctor_us", costs.machine_ctor_us, "us"},
      {"kernel.fork_us", costs.fork_us, "us"},
      {"kernel.cow_pages_per_attempt", cow_per_attempt, "pages"},
      {"sim.ns_per_instr", ns_per_instr, "ns"},
      {"sim.base_ns_per_instr", costs.base_ns_per_instr, "ns"},
      {"sim.mem_share", mem_share, "ratio"},
      {"sim.injector_slowdown", costs.injector_slowdown, "ratio"},
      {"inject.make_plan_us", costs.make_plan_us, "us"},
      {"inject.engine_ctor_us", costs.engine_ctor_us, "us"},
      {"inject.plan_entries", plan_entries, "count"},
      {"inject.consumed_ratio", consumed, "ratio"},
      {"inject.est_share", inject_share, "ratio"},
      {"workload.attempts_precomputed", precomputed, "count"},
      {"workload.attempts_dispatched", dispatched, "count"},
      {"workload.attempt_use_ratio",
       precomputed > 0 ? dispatched / precomputed : 0, "ratio"},
      {"workload.residual_share", residual, "ratio"},
      {"exec.scaling", scaling, "ratio"},
      {"obs.trace_overhead", traced.wall / untraced.wall, "ratio"},
  };
  for (const auto& [key, us] : costs.us_per_trial) {
    out.push_back({"attack.us_per_trial." + key, us, "us"});
  }
  return closed && replay_ok;
}

}  // namespace perfbench
