#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "attack/experiments.h"
#include "attack/games.h"
#include "common/rng.h"
#include "common/stats.h"
#include "compiler/codegen.h"
#include "exec/parallel.h"
#include "inject/plan.h"
#include "kernel/machine.h"
#include "obs/recorder.h"
#include "workload/spec_suite.h"

namespace perfbench {

using namespace acs;

Slot schedule(u64 seed, u64 n_configs, u64 index) {
  const u64 round = index / n_configs;
  std::vector<u64> order(n_configs);
  std::iota(order.begin(), order.end(), u64{0});
  Rng rng(exec::trial_seed(seed, round));
  for (u64 i = n_configs; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return Slot{order[index % n_configs], round};
}

u64 fnv1a(const std::string& text) {
  u64 hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

std::string hex(u64 value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

OpOutcome check(const Pins& pins, const std::string& workload,
                const std::string& key, std::string output,
                const std::string& pinned_output, double work) {
  OpOutcome outcome;
  outcome.work = work;
  outcome.key = key;
  const auto* pinned = pins.find(workload, key);
  outcome.ok = pinned != nullptr && !pinned->empty() &&
               (*pinned)[0] == pinned_output;
  outcome.output = std::move(output);
  return outcome;
}

u64 harvest(unsigned b) { return 5 * (u64{1} << (b / 2)); }

}  // namespace

// ---- mc_security -------------------------------------------------------------

void McSecurity::setup() {
  configs_.clear();
  // Trial counts put every op near 80 ms of one core, so the round's mix
  // is balanced across experiments.
  struct Experiment {
    const char* name;
    u64 trials_b8;
    u64 trials_b12;
    std::function<u64(unsigned, u64, u64, unsigned)> run;
  };
  const std::vector<Experiment> experiments = {
      {"on_graph_unmasked", 12000, 2600,
       [](unsigned b, u64 t, u64 s, unsigned th) {
         return attack::on_graph_attack(b, false, harvest(b), t, s, th)
             .successes;
       }},
      {"on_graph_masked", 8000, 2200,
       [](unsigned b, u64 t, u64 s, unsigned th) {
         return attack::on_graph_attack(b, true, harvest(b), t, s, th)
             .successes;
       }},
      {"deep_harvest", 7200, 1800,
       [](unsigned b, u64 t, u64 s, unsigned th) {
         return attack::on_graph_attack_deep_harvest(b, harvest(b), t, s, th)
             .successes;
       }},
      {"off_graph_call_site", 320000, 320000,
       [](unsigned b, u64 t, u64 s, unsigned th) {
         return attack::off_graph_to_call_site(b, true, t, s, th).successes;
       }},
      {"off_graph_arbitrary", 352000, 400000,
       [](unsigned b, u64 t, u64 s, unsigned th) {
         return attack::off_graph_arbitrary(b, true, t, s, th).successes;
       }},
      {"collision_within", 56000, 19200,
       [](unsigned b, u64 t, u64 s, unsigned th) {
         const u64 q = (u64{1} << (b / 2)) * 6 / 5;
         return attack::collision_within(b, q, t, s, th).successes;
       }},
      {"pac_collision_masked", 22400, 22400,
       [](unsigned b, u64 t, u64 s, unsigned th) {
         return attack::pac_collision_game(b, 64, t, s, th).wins;
       }},
      {"pac_collision_unmasked", 32000, 19200,
       [](unsigned b, u64 t, u64 s, unsigned th) {
         return attack::pac_collision_game_unmasked(b, 80, t, s, th).wins;
       }},
      {"pac_distinguish", 11200, 12800,
       [](unsigned b, u64 t, u64 s, unsigned th) {
         return attack::pac_distinguish_game(b, 256, t, s, th).wins;
       }},
      {"mask_distinguish", 3200, 3200,
       [](unsigned b, u64 t, u64 s, unsigned th) {
         return attack::mask_distinguish_game(b, 128, t, s, th).wins;
       }},
  };
  for (const unsigned b : {8U, 12U}) {
    for (const auto& e : experiments) {
      configs_.push_back(Config{std::string(e.name) + "_b" + std::to_string(b),
                                b, b == 8 ? e.trials_b8 : e.trials_b12,
                                e.run});
    }
  }
}

u64 McSecurity::pool_seed(const Config& config, u64 k) {
  return exec::trial_seed(fnv1a(config.key), k);
}

OpOutcome McSecurity::run_op(u64 index, unsigned threads, Tracer* tracer,
                             obs::Metrics*) {
  const Slot slot = schedule(seed_, configs_.size(), index);
  const Config& config = configs_[slot.config];
  const u64 k = (exec::trial_seed(seed_, slot.config) + slot.round) % kPool;
  u64 successes = 0;
  {
    ScopedSpan span(tracer, ("attack." + config.key).c_str(), index);
    successes = config.run(config.b, config.trials, pool_seed(config, k),
                           threads);
  }
  const std::string key = config.key + "#" + std::to_string(k);
  const std::string out = std::to_string(successes);
  return check(pins_, name(), key, out, out,
               static_cast<double>(config.trials));
}

std::vector<std::string> McSecurity::pin_lines(unsigned threads) {
  std::vector<std::string> lines;
  for (const Config& config : configs_) {
    for (u64 k = 0; k < kPool; ++k) {
      const u64 successes = config.run(config.b, config.trials,
                                       pool_seed(config, k), threads);
      lines.push_back(name() + " " + config.key + "#" + std::to_string(k) +
                      " " + std::to_string(successes));
    }
  }
  return lines;
}

// ---- spec_sim ----------------------------------------------------------------

namespace {

const std::vector<compiler::Scheme>& fig5_schemes() {
  static const std::vector<compiler::Scheme> schemes = {
      compiler::Scheme::kNone,        compiler::Scheme::kPacStack,
      compiler::Scheme::kPacStackNoMask, compiler::Scheme::kShadowStack,
      compiler::Scheme::kPacRet,      compiler::Scheme::kCanary};
  return schemes;
}

constexpr u64 kSpecKeySalt = 0x73706563'6b657973ULL;

struct SpecRun {
  u64 cycles = 0;
  u64 instructions = 0;
  bool clean = false;
};

SpecRun run_spec(const sim::Program& program, u64 machine_seed,
                 Tracer* tracer, u64 op, obs::Metrics* counts) {
  kernel::MachineOptions options;
  options.seed = machine_seed;
  std::unique_ptr<obs::Recorder> recorder;
  if (counts != nullptr) {
    recorder = std::make_unique<obs::Recorder>();
    options.recorder = recorder.get();
  }
  SpecRun run;
  {
    std::unique_ptr<kernel::Machine> machine;
    {
      ScopedSpan span(tracer, "kernel.machine_ctor", op);
      machine = std::make_unique<kernel::Machine>(program, options);
    }
    {
      ScopedSpan span(tracer, "sim.run", op);
      (void)machine->run();
    }
    const auto& process = machine->init_process();
    run.cycles = process.cycles();
    run.instructions = process.instructions();
    run.clean = process.state == kernel::ProcessState::kExited &&
                process.exit_code == 0;
  }
  if (counts != nullptr) counts->merge(recorder->metrics());
  return run;
}

std::string spec_output(const SpecRun& run) {
  return std::to_string(run.cycles) + " " + std::to_string(run.instructions) +
         (run.clean ? " clean" : " dirty");
}

}  // namespace

void SpecSim::setup() {
  configs_.clear();
  programs_.clear();
  const auto add = [&](const workload::SpecBenchmark& bench, bool cpp) {
    const auto ir =
        cpp ? workload::make_spec_cpp_ir(bench) : workload::make_spec_ir(bench);
    for (const compiler::Scheme scheme : fig5_schemes()) {
      configs_.push_back(Config{bench.name + "/" + compiler::scheme_name(scheme),
                                bench.name, bench.speed, cpp, scheme});
      programs_.push_back(compiler::compile_ir(ir, {.scheme = scheme}));
    }
  };
  for (const auto& bench : workload::spec_suite()) add(bench, false);
  for (const auto& bench : workload::spec_cpp_suite()) add(bench, true);
}

OpOutcome SpecSim::run_op(u64 index, unsigned, Tracer* tracer,
                          obs::Metrics* counts) {
  const u64 c = schedule(seed_, configs_.size(), index).config;
  const SpecRun run =
      run_spec(programs_[c], exec::trial_seed(seed_ ^ kSpecKeySalt, index),
               tracer, index, counts);
  const std::string out = spec_output(run);
  const auto* pinned = pins_.find(name(), configs_[c].key);
  OpOutcome outcome;
  outcome.work = static_cast<double>(run.instructions);
  outcome.key = configs_[c].key;
  outcome.output = out;
  outcome.ok = run.clean && pinned != nullptr && pinned->size() == 2 &&
               (*pinned)[0] == std::to_string(run.cycles) &&
               (*pinned)[1] == std::to_string(run.instructions);
  return outcome;
}

std::vector<std::string> SpecSim::pin_lines(unsigned) {
  std::vector<std::string> lines;
  for (std::size_t c = 0; c < configs_.size(); ++c) {
    const SpecRun a = run_spec(programs_[c], 1, nullptr, 0, nullptr);
    const SpecRun b = run_spec(programs_[c], 0xfeedface, nullptr, 0, nullptr);
    if (!a.clean || a.cycles != b.cycles || a.instructions != b.instructions) {
      throw std::runtime_error("spec_sim: " + configs_[c].key +
                               " is not key-independent or not clean: " +
                               spec_output(a) + " vs " + spec_output(b));
    }
    lines.push_back(name() + " " + configs_[c].key + " " +
                    std::to_string(a.cycles) + " " +
                    std::to_string(a.instructions));
  }
  return lines;
}

std::pair<double, double> SpecSim::pacstack_geomean() const {
  std::vector<double> rate, speed;
  for (const Config& config : configs_) {
    if (config.cpp || config.scheme != compiler::Scheme::kPacStack) continue;
    const auto* inst = pins_.find(name(), config.key);
    const auto* base = pins_.find(
        name(), config.benchmark + "/" +
                    compiler::scheme_name(compiler::Scheme::kNone));
    if (inst == nullptr || base == nullptr) return {NAN, NAN};
    const double overhead =
        (std::stod((*inst)[0]) / std::stod((*base)[0]) - 1.0) * 100.0;
    (config.speed ? speed : rate).push_back(overhead);
  }
  return {geomean_overhead_percent(rate), geomean_overhead_percent(speed)};
}

// ---- serve_storm -------------------------------------------------------------

void ServeStorm::setup() {
  configs_.clear();
  for (const auto& [scheme, label] :
       {std::pair{compiler::Scheme::kNone, "baseline"},
        std::pair{compiler::Scheme::kPacStack, "pacstack"}}) {
    for (const workload::Mitigation arm :
         {workload::Mitigation::kNone, workload::Mitigation::kRetryBudget,
          workload::Mitigation::kBreakerShed}) {
      configs_.push_back(Config{std::string(label) + "/" +
                                    workload::mitigation_name(arm),
                                scheme, arm});
    }
  }
}

u64 ServeStorm::pool_seed(u64 k) {
  return k == 0 ? 42 : exec::trial_seed(42, k);
}

u64 ServeStorm::pool_index(u64 index) const {
  const Slot slot = schedule(seed_, configs_.size(), index);
  return (exec::trial_seed(seed_, slot.config) + slot.round) % kPool;
}

const ServeStorm::Config& ServeStorm::config_of(u64 index) const {
  return configs_[schedule(seed_, configs_.size(), index).config];
}

namespace {

/// bench_serving_topology's stormed smoke point: load 90, storm 8000 f/M
/// of kBudgetExhaust over the middle of a 400-request trace, 2 tiers x
/// 3 pools x 1 worker.
workload::TopologyConfig storm_config(workload::Mitigation arm, u64 seed,
                                      unsigned threads) {
  workload::TopologyConfig config;
  config.tiers = 2;
  config.pools_per_tier = 3;
  config.workers_per_pool = 1;
  config.requests = 400;
  config.load_percent = 90;
  config.queue_capacity = 64;
  config.storm_faults_per_million = 8000;
  config.storm_begin_permille = 150;
  config.storm_end_permille = 750;
  config.fault_kinds = {inject::FaultKind::kBudgetExhaust};
  config.seed = seed;
  config.threads = threads;
  workload::apply_mitigation(config, arm);
  return config;
}

}  // namespace

workload::TopologyConfig ServeStorm::topology(u64 index,
                                              unsigned threads) const {
  return storm_config(config_of(index).mitigation, pool_seed(pool_index(index)),
                      threads);
}

std::string ServeStorm::fields(const workload::TopologyResult& r) {
  std::string out;
  const auto add = [&](const std::string& field, u64 value) {
    out += (out.empty() ? "" : " ") + field + "=" + std::to_string(value);
  };
  add("requests", r.requests);
  add("completed", r.completed);
  add("dropped", r.dropped);
  add("failed", r.failed);
  add("goodput", r.goodput);
  add("deadline_missed", r.deadline_missed);
  add("crashed_attempts", r.crashed_attempts);
  add("retries", r.retries);
  add("retry_budget_denied", r.retry_budget_denied);
  add("hedges", r.hedges);
  add("breaker_trips", r.breaker_trips);
  add("breaker_probes", r.breaker_probes);
  add("forks", r.forks);
  add("cow_pages_copied", r.cow_pages_copied);
  add("backoff_cycles", r.backoff_cycles);
  add("makespan_cycles", r.makespan_cycles);
  add("mean_service_cycles", r.mean_service_cycles);
  for (const auto& [cause, count] : r.drops) add("drops." + cause, count);
  add("phases.pre_storm.arrivals", r.pre_storm.arrivals);
  add("phases.pre_storm.goodput", r.pre_storm.goodput);
  add("phases.storm.arrivals", r.storm.arrivals);
  add("phases.storm.goodput", r.storm.goodput);
  add("phases.post_storm.arrivals", r.post_storm.arrivals);
  add("phases.post_storm.goodput", r.post_storm.goodput);
  add("latency.p50", r.latency.p50());
  add("latency.p90", r.latency.p90());
  add("latency.p99", r.latency.p99());
  add("latency.p999", r.latency.p999());
  add("latency.max", r.latency.max());
  add("latency.count", r.latency.count());
  for (std::size_t t = 0; t < r.tiers.size(); ++t) {
    const std::string tier = "tier" + std::to_string(t) + ".";
    add(tier + "dispatched", r.tiers[t].dispatched);
    add(tier + "completed", r.tiers[t].completed);
    add(tier + "crashed_attempts", r.tiers[t].crashed_attempts);
    add(tier + "queue_depth_max", r.tiers[t].queue_depth_max);
  }
  return out;
}

OpOutcome ServeStorm::run_op(u64 index, unsigned threads, Tracer* tracer,
                             obs::Metrics*) {
  const auto config = topology(index, threads);
  workload::TopologyResult result;
  {
    ScopedSpan span(tracer, "workload.run_topology_simulation", index);
    result = workload::run_topology_simulation(config_of(index).scheme, config);
  }
  const std::string out = fields(result);
  return check(pins_, name(),
               config_of(index).key + "#" + std::to_string(pool_index(index)),
               out, hex(fnv1a(out)), static_cast<double>(result.requests));
}

std::vector<std::string> ServeStorm::pin_lines(unsigned threads) {
  std::vector<std::string> lines;
  for (const Config& config : configs_) {
    for (u64 k = 0; k < kPool; ++k) {
      const auto result = workload::run_topology_simulation(
          config.scheme, storm_config(config.mitigation, pool_seed(k), threads));
      const std::string out = fields(result);
      lines.push_back(name() + " " + config.key + "#" + std::to_string(k) +
                      " " + hex(fnv1a(out)) + " " + out);
    }
  }
  return lines;
}

// ---- registry ----------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed,
                                        const Pins& pins) {
  if (name == "mc_security") return std::make_unique<McSecurity>(seed, pins);
  if (name == "spec_sim") return std::make_unique<SpecSim>(seed, pins);
  if (name == "serve_storm") return std::make_unique<ServeStorm>(seed, pins);
  throw std::runtime_error("unknown workload '" + name + "'");
}

}  // namespace perfbench
