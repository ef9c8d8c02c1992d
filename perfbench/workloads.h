// The three workloads. Declared here (not in bench.h) because the traced
// run reads their configurations to replay and account their ops.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "compiler/scheme.h"
#include "sim/isa.h"
#include "workload/topology.h"

namespace perfbench {

/// Op `index` of a seed-shuffled round robin over `n_configs` configs:
/// every round visits each config once, in an order drawn from the seed.
struct Slot {
  u64 config = 0;
  u64 round = 0;
};
[[nodiscard]] Slot schedule(u64 seed, u64 n_configs, u64 index);

/// FNV-1a, for stable per-config seeds and output digests.
[[nodiscard]] u64 fnv1a(const std::string& text);

/// Table 1 / Appendix A Monte Carlo through exec: one op is one experiment
/// call at a fixed trial count; its output is the exact success count.
class McSecurity final : public Workload {
 public:
  struct Config {
    std::string key;  ///< "<experiment>_b<b>"
    unsigned b = 8;
    u64 trials = 0;
    std::function<u64(unsigned b, u64 trials, u64 seed, unsigned threads)>
        run;  ///< returns the success count
  };
  /// Per-config seed pool: op seeds are drawn from it so every output is
  /// pinned.
  static constexpr u64 kPool = 32;

  McSecurity(u64 seed, const Pins& pins) : seed_(seed), pins_(pins) {}
  [[nodiscard]] std::string name() const override { return "mc_security"; }
  [[nodiscard]] std::string throughput_unit() const override {
    return "trials/s";
  }
  [[nodiscard]] double tail_percentile() const override { return 90; }
  [[nodiscard]] bool threaded() const override { return true; }
  void setup() override;
  [[nodiscard]] u64 round_ops() const override { return configs_.size(); }
  OpOutcome run_op(u64 index, unsigned threads, Tracer* tracer,
                   acs::obs::Metrics* counts) override;
  [[nodiscard]] std::vector<std::string> pin_lines(unsigned threads) override;

  [[nodiscard]] const std::vector<Config>& configs() const { return configs_; }
  [[nodiscard]] static u64 pool_seed(const Config& config, u64 k);

 private:
  u64 seed_;
  const Pins& pins_;
  std::vector<Config> configs_;
};

/// Figure 5: every SPEC-like program x the six schemes, compiled once;
/// one op is one kernel::Machine run with fresh keys. Its output is the
/// exact (cycles, instructions, clean exit), which no key changes.
class SpecSim final : public Workload {
 public:
  struct Config {
    std::string key;  ///< "<benchmark>/<scheme>"
    std::string benchmark;
    bool speed = false;  ///< SPECspeed (C suite only)
    bool cpp = false;
    acs::compiler::Scheme scheme{};
  };

  SpecSim(u64 seed, const Pins& pins) : seed_(seed), pins_(pins) {}
  [[nodiscard]] std::string name() const override { return "spec_sim"; }
  [[nodiscard]] std::string throughput_unit() const override {
    return "instr/s";
  }
  [[nodiscard]] double tail_percentile() const override { return 99.9; }
  [[nodiscard]] bool threaded() const override { return false; }
  void setup() override;
  [[nodiscard]] u64 round_ops() const override { return configs_.size(); }
  /// Programs differ 30x in length: warm up on a whole round.
  [[nodiscard]] u64 warmup_ops() const override { return round_ops(); }
  OpOutcome run_op(u64 index, unsigned threads, Tracer* tracer,
                   acs::obs::Metrics* counts) override;
  [[nodiscard]] std::vector<std::string> pin_lines(unsigned threads) override;

  [[nodiscard]] const std::vector<Config>& configs() const { return configs_; }
  /// PACStack geomean overhead (percent) over the pinned cycles of the
  /// C rate and speed suites.
  [[nodiscard]] std::pair<double, double> pacstack_geomean() const;

 private:
  u64 seed_;
  const Pins& pins_;
  std::vector<Config> configs_;
  std::vector<acs::sim::Program> programs_;
};

/// E14's stormed arms: one op is one run_topology_simulation call with the
/// op's seed; its output is a digest of the TopologyResult.
class ServeStorm final : public Workload {
 public:
  struct Config {
    std::string key;  ///< "<scheme>/<mitigation>"
    acs::compiler::Scheme scheme{};
    acs::workload::Mitigation mitigation{};
  };
  static constexpr u64 kPool = 16;

  ServeStorm(u64 seed, const Pins& pins) : seed_(seed), pins_(pins) {}
  [[nodiscard]] std::string name() const override { return "serve_storm"; }
  [[nodiscard]] std::string throughput_unit() const override {
    return "requests/s";
  }
  [[nodiscard]] double tail_percentile() const override { return 80; }
  [[nodiscard]] bool threaded() const override { return true; }
  void setup() override;
  [[nodiscard]] u64 round_ops() const override { return configs_.size(); }
  OpOutcome run_op(u64 index, unsigned threads, Tracer* tracer,
                   acs::obs::Metrics* counts) override;
  [[nodiscard]] std::vector<std::string> pin_lines(unsigned threads) override;

  [[nodiscard]] const std::vector<Config>& configs() const { return configs_; }
  /// The topology configuration of op `index` (seed included).
  [[nodiscard]] acs::workload::TopologyConfig topology(u64 index,
                                                       unsigned threads) const;
  [[nodiscard]] const Config& config_of(u64 index) const;
  /// Seed of pool entry k; entry 0 is seed 42, the checked-in reference.
  [[nodiscard]] static u64 pool_seed(u64 k);
  /// The digested fields of a result, "name=value" separated by spaces.
  [[nodiscard]] static std::string fields(
      const acs::workload::TopologyResult& result);

 private:
  [[nodiscard]] u64 pool_index(u64 index) const;

  u64 seed_;
  const Pins& pins_;
  std::vector<Config> configs_;
};

}  // namespace perfbench
