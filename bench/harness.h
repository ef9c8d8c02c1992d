// Shared harness for the bench binaries: uniform flag parsing and
// machine-readable output.
//
// Every bench accepts the same flags:
//   --threads=N   host threads for trial-parallel campaigns
//                 (0 = all hardware threads; default 1 — results are
//                 bitwise identical for every value, see exec/parallel.h)
//   --json=PATH   additionally write a BENCH_<name>.json-style trajectory
//                 (schema: docs/bench-output.md)
//   --smoke       shrink trial counts to CI-smoke size (seconds, not
//                 minutes); used by the bench_smoke ctest targets
//   --help        usage
//
// Benches built on the observability layer (src/obs) additionally accept
// (parse_bench_args(..., /*obs_flags=*/true)):
//   --trace=PATH    write a Chrome trace-event JSON file (Perfetto-loadable)
//   --profile=PATH  write a folded-stack (flamegraph) cycle profile
// An obs flag given to a bench without obs support is an error (exit 2) —
// flags that silently do nothing are how stale numbers get published.
//
// The human-readable tables keep printing exactly as before; the JSON file
// is an *additional* sink fed through BenchReporter::record.
#pragma once

#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace acs::bench {

namespace json {
struct Value;
}  // namespace json

struct BenchOptions {
  unsigned threads = 1;      ///< 0 = all hardware threads
  std::string json_path;     ///< empty = no JSON output
  bool smoke = false;        ///< tiny trial counts for smoke runs
  std::string trace_path;    ///< empty = no event trace (--trace)
  std::string profile_path;  ///< empty = no folded profile (--profile)
};

/// Parse the uniform bench flags. Prints usage and exits(0) on --help;
/// prints an error and exits(2) on an unknown flag or malformed value.
/// `extra_usage` (optional) is appended to the usage text for binaries
/// with additional flags of their own. `obs_flags` enables --trace /
/// --profile; benches that cannot honour them reject them loudly instead
/// of accepting and ignoring.
[[nodiscard]] BenchOptions parse_bench_args(int argc, char** argv,
                                            const char* bench_name,
                                            const char* extra_usage = nullptr,
                                            bool obs_flags = false);

/// One recorded metric of a campaign.
struct Metric {
  std::string name;    ///< e.g. "fresh_key_mean_guesses_b8"
  double value = 0;
  std::string units;   ///< e.g. "guesses", "req/s", "probability"
  u64 trials = 0;      ///< Monte-Carlo trials behind the value (0 = n/a)
  double stddev = 0;   ///< sample stddev across trials (0 = n/a)
};

// Trajectory sections. Each section struct names its JSON key in `kName`
// and lists its JSON fields once, in emission order, in a `fields(f)`
// member template that calls f(key, member) per field. The writer
// (to_json) and the checker (check_trajectory) both walk that list, so a
// field is declared, written and validated from one line. Field kinds:
//   u64, double                 a JSON number
//   Hex64                       a "0x%016llx" string
//   std::map<std::string, u64>  a counter object, written inline
//   a struct with fields()      a nested object, written inline
//   std::map<std::string, S>    an object of S entries keyed by tag,
//                               one field per line
// Cross-field identities (e.g. completed + dropped + failed == requests)
// are not expressible as a kind; check_trajectory spells them out.

/// A 64-bit digest, written to JSON as a "0x%016llx" string.
struct Hex64 {
  u64 value = 0;
};

/// Fault-injection campaign totals, emitted as the "faults" section of the
/// JSON trajectory (see docs/bench-output.md). Integer counters aggregated
/// in fixed trial order — bitwise identical for every --threads value.
struct FaultSection {
  static constexpr const char* kName = "faults";
  std::map<std::string, u64> injected;  ///< delivered, by inject kind name
  std::map<std::string, u64> crashes;   ///< worker crashes, by sim fault name
  u64 restarts = 0;
  u64 guess_attempts = 0;
  u64 guess_successes = 0;
  u64 backoff_cycles = 0;

  template <class F>
  void fields(F&& f) {
    f("injected", injected);
    f("crashes", crashes);
    f("restarts", restarts);
    f("guess_attempts", guess_attempts);
    f("guess_successes", guess_successes);
    f("backoff_cycles", backoff_cycles);
  }
};

/// Fuzzing campaign totals, emitted as the "fuzz" section of the JSON
/// trajectory (see docs/bench-output.md). The coverage fingerprint is the
/// order-independent digest of the final feature map — identical for every
/// --threads value under a fixed candidate budget, which is exactly the
/// determinism claim the ctest pins.
struct FuzzSection {
  static constexpr const char* kName = "fuzz";
  u64 candidates = 0;        ///< candidates evaluated (incl. discarded)
  u64 viable = 0;            ///< candidates at least one oracle applied to
  u64 executions = 0;        ///< machine runs across all oracles
  u64 rounds = 0;
  u64 corpus_size = 0;       ///< entries kept by the coverage scheduler
  u64 features_covered = 0;  ///< distinct features in the final map
  Hex64 coverage_fingerprint;  ///< FeatureMap::fingerprint()
  std::map<std::string, u64> findings_by_oracle;  ///< oracle name -> count

  template <class F>
  void fields(F&& f) {
    f("candidates", candidates);
    f("viable", viable);
    f("executions", executions);
    f("rounds", rounds);
    f("corpus_size", corpus_size);
    f("features_covered", features_covered);
    f("coverage_fingerprint", coverage_fingerprint);
    f("findings", findings_by_oracle);
  }
};

/// Static-verifier totals, emitted as the "lint" section of the JSON
/// trajectory (see docs/bench-output.md). Everything is a pure function of
/// (workload set, scheme set): integer counters in fixed iteration order,
/// bitwise identical for every --threads value. Replay counters stay zero
/// unless the run replayed witnesses (acs-lint --replay).
struct LintSection {
  static constexpr const char* kName = "lint";
  u64 programs = 0;             ///< (scheme, workload) pairs verified
  u64 functions_verified = 0;
  u64 diagnostics = 0;
  u64 witnesses = 0;            ///< attack witnesses synthesized
  u64 replays_confirmed = 0;    ///< witness replays per verdict
  u64 replays_refuted = 0;
  u64 replays_unconfirmed = 0;
  std::map<std::string, u64> findings_by_code;      ///< "ACS001" -> count
  std::map<std::string, u64> findings_by_function;  ///< function -> count

  template <class F>
  void fields(F&& f) {
    f("programs", programs);
    f("functions_verified", functions_verified);
    f("diagnostics", diagnostics);
    f("witnesses", witnesses);
    f("replays_confirmed", replays_confirmed);
    f("replays_refuted", replays_refuted);
    f("replays_unconfirmed", replays_unconfirmed);
    f("findings_by_code", findings_by_code);
    f("findings_by_function", findings_by_function);
  }
};

/// Simulator-throughput totals, emitted as the "sim" section of the JSON
/// trajectory (see docs/bench-output.md and docs/simulator.md). The
/// instr/sec rates are host-dependent; everything else — instruction
/// counts, page counts and the equivalence fingerprint over architectural
/// outcomes — is deterministic and bitwise identical for every --threads
/// value (bench_sim_throughput exits non-zero if the dispatch modes ever
/// diverge).
struct SimSection {
  static constexpr const char* kName = "sim";
  u64 instructions = 0;      ///< instructions retired per measured run
  double ips_interpreter = 0;  ///< instr/sec, re-decode-per-step path
  double ips_decoded = 0;      ///< instr/sec, predecoded fast path
  double speedup = 0;          ///< ips_decoded / ips_interpreter
  double forks_per_sec = 0;    ///< CoW Machine forks constructed per second
  u64 cow_private_pages = 0;   ///< pages one fork privatised by running
  u64 equivalence_runs = 0;    ///< machine runs folded into the fingerprint
  Hex64 equivalence_fingerprint;  ///< digest of outcomes

  template <class F>
  void fields(F&& f) {
    f("instructions", instructions);
    f("ips_interpreter", ips_interpreter);
    f("ips_decoded", ips_decoded);
    f("speedup", speedup);
    f("forks_per_sec", forks_per_sec);
    f("cow_private_pages", cow_private_pages);
    f("equivalence_runs", equivalence_runs);
    f("equivalence_fingerprint", equivalence_fingerprint);
  }
};

/// One configuration's end-to-end latency summary: integer simulated
/// cycles extracted from an obs::LogHistogram (docs/observability.md
/// "Latency histograms") — deterministic for every --threads value.
struct LatencySummary {
  u64 p50 = 0;
  u64 p90 = 0;
  u64 p99 = 0;
  u64 p999 = 0;
  u64 max = 0;
  u64 count = 0;  ///< completed requests behind the percentiles

  template <class F>
  void fields(F&& f) {
    f("p50", p50);
    f("p90", p90);
    f("p99", p99);
    f("p999", p999);
    f("max", max);
    f("count", count);
  }
};

/// Arrivals in one storm phase, and how many of them completed within
/// their deadline.
struct PhaseCounts {
  u64 arrivals = 0;
  u64 goodput = 0;

  template <class F>
  void fields(F&& f) {
    f("arrivals", arrivals);
    f("goodput", goodput);
  }
};

/// Requests split by arrival time relative to the storm window.
struct Phases {
  PhaseCounts pre_storm;
  PhaseCounts storm;
  PhaseCounts post_storm;

  template <class F>
  void fields(F&& f) {
    f("pre_storm", pre_storm);
    f("storm", storm);
    f("post_storm", post_storm);
  }
};

/// One topology sweep configuration's outcome (bench_serving_topology):
/// terminal accounting, storm-phase goodput, and the end-to-end latency
/// summary. The phase split is the metastability probe — post-storm
/// goodput staying collapsed after the storm window closes is the failure
/// mode the mitigation arms exist to prevent.
struct TopologyEntry {
  u64 requests = 0;
  u64 completed = 0;
  u64 dropped = 0;
  u64 failed = 0;
  u64 goodput = 0;          ///< completions within deadline
  u64 deadline_missed = 0;
  u64 crashed_attempts = 0;
  u64 retries = 0;
  u64 breaker_trips = 0;
  Phases phases;
  LatencySummary latency;

  template <class F>
  void fields(F&& f) {
    f("requests", requests);
    f("completed", completed);
    f("dropped", dropped);
    f("failed", failed);
    f("goodput", goodput);
    f("deadline_missed", deadline_missed);
    f("crashed_attempts", crashed_attempts);
    f("retries", retries);
    f("breaker_trips", breaker_trips);
    f("phases", phases);
    f("latency", latency);
  }
};

/// Multi-tier topology totals, emitted as the "topology" section of the
/// JSON trajectory (see docs/bench-output.md). Counters are summed over
/// every configuration in the sweep; `configs` carries one TopologyEntry
/// per configuration tag (e.g. "pacstack_load90_s8000_breaker-shed"). All
/// integers in fixed sweep order — bitwise identical for every --threads
/// value (pinned by the bench_topology_invariance ctest target).
struct TopologySection {
  static constexpr const char* kName = "topology";
  u64 requests = 0;
  u64 completed = 0;
  u64 dropped = 0;
  u64 failed = 0;
  u64 goodput = 0;
  u64 deadline_missed = 0;
  u64 crashed_attempts = 0;
  u64 retries = 0;
  u64 retry_budget_denied = 0;
  u64 hedges = 0;
  u64 breaker_trips = 0;
  u64 breaker_probes = 0;
  u64 forks = 0;
  u64 cow_pages_copied = 0;
  u64 backoff_cycles = 0;
  u64 gauge_samples = 0;
  u64 attempts_run = 0;        ///< machines run (>= forks)
  u64 cow_pages_run = 0;       ///< pages they privatised
  u64 plan_entries_drawn = 0;  ///< fault-plan entries their engines drew
  u64 faults_delivered = 0;    ///< faults delivered (<= plan_entries_drawn)
  std::map<std::string, u64> drops;  ///< terminal cause -> count, summed
  std::map<std::string, TopologyEntry> configs;  ///< config tag -> outcome

  template <class F>
  void fields(F&& f) {
    f("requests", requests);
    f("completed", completed);
    f("dropped", dropped);
    f("failed", failed);
    f("goodput", goodput);
    f("deadline_missed", deadline_missed);
    f("crashed_attempts", crashed_attempts);
    f("retries", retries);
    f("retry_budget_denied", retry_budget_denied);
    f("hedges", hedges);
    f("breaker_trips", breaker_trips);
    f("breaker_probes", breaker_probes);
    f("forks", forks);
    f("cow_pages_copied", cow_pages_copied);
    f("backoff_cycles", backoff_cycles);
    f("gauge_samples", gauge_samples);
    f("attempts_run", attempts_run);
    f("cow_pages_run", cow_pages_run);
    f("plan_entries_drawn", plan_entries_drawn);
    f("faults_delivered", faults_delivered);
    f("drops", drops);
    f("configs", configs);
  }
};

/// One (kernel point, scheme) measurement of the synthetic-kernel sweep
/// (bench_kernel_sweep, docs/synthetic-kernels.md): simulated cycle /
/// instruction totals plus the per-call and per-op attribution derived
/// from the obs counters of the same run. The doubles are ratios of
/// deterministic integers, so the section is bitwise identical for every
/// --threads value.
struct KernelEntry {
  u64 functions = 0;        ///< functions in the generated IR
  u64 static_calls = 0;     ///< static call sites (direct+indirect+slot)
  u64 static_depth = 0;     ///< longest static call chain
  u64 cycles = 0;           ///< simulated cycles to clean exit
  u64 instructions = 0;     ///< instructions retired
  u64 calls = 0;            ///< dynamic calls (sim.call.depth total)
  u64 pa_instructions = 0;  ///< retired PA-class instructions
  u64 chain_pushes = 0;     ///< authenticated-chain pushes (PACStack only)
  double overhead_percent = 0;  ///< cycles vs the kNone run, same kernel
  double cycles_per_call = 0;
  double cycles_per_instruction = 0;

  template <class F>
  void fields(F&& f) {
    f("functions", functions);
    f("static_calls", static_calls);
    f("static_depth", static_depth);
    f("cycles", cycles);
    f("instructions", instructions);
    f("calls", calls);
    f("pa_instructions", pa_instructions);
    f("chain_pushes", chain_pushes);
    f("overhead_percent", overhead_percent);
    f("cycles_per_call", cycles_per_call);
    f("cycles_per_instruction", cycles_per_instruction);
  }
};

/// Synthetic-kernel overhead surface, emitted as the "kernels" section of
/// the JSON trajectory (see docs/bench-output.md). `entries` is keyed
/// "<family>/<point>/<scheme>"; totals are summed in fixed sweep order —
/// bitwise identical for every --threads value (pinned by the
/// bench_kernels_invariance ctest target).
struct KernelsSection {
  static constexpr const char* kName = "kernels";
  u64 kernels = 0;  ///< distinct (family, point) kernels measured
  u64 schemes = 0;
  u64 runs = 0;     ///< machine runs behind the entries
  u64 total_cycles = 0;
  u64 total_instructions = 0;
  std::map<std::string, KernelEntry> entries;

  template <class F>
  void fields(F&& f) {
    f("kernels", kernels);
    f("schemes", schemes);
    f("runs", runs);
    f("total_cycles", total_cycles);
    f("total_instructions", total_instructions);
    f("entries", entries);
  }
};

/// Any one trajectory section, in emission order.
using Section = std::variant<FaultSection, FuzzSection, SimSection,
                             LintSection, TopologySection, KernelsSection>;

/// Collects metrics during a bench run and writes the machine-readable
/// trajectory on finish(). Wall-clock time is measured from construction
/// to finish(). Table/stdout output is unaffected: record() only feeds the
/// JSON sink.
class BenchReporter {
 public:
  /// `base_seed` is the campaign's primary seed constant, recorded so a
  /// trajectory identifies its RNG universe.
  BenchReporter(std::string bench_name, BenchOptions options, u64 base_seed);

  void record(std::string name, double value, std::string units,
              u64 trials = 0, double stddev = 0);

  /// Attach the aggregated observability metrics (emitted as the "obs"
  /// section of the JSON trajectory; see docs/bench-output.md).
  void set_obs_metrics(obs::Metrics metrics);

  /// Attach a section (emitted under its kName; see docs/bench-output.md).
  /// A second section of the same type replaces the first.
  void set_section(Section section);

  /// Write the JSON file if --json was given. Returns false (after
  /// printing to stderr) if the file cannot be written. Idempotent.
  bool finish();

  [[nodiscard]] const BenchOptions& options() const noexcept { return options_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

 private:
  std::string bench_name_;
  BenchOptions options_;
  u64 base_seed_;
  std::vector<Metric> metrics_;
  obs::Metrics obs_metrics_;
  bool has_obs_metrics_ = false;
  std::vector<Section> sections_;
  long long start_ns_;
  bool finished_ = false;
};

/// Serialise a trajectory to the docs/bench-output.md JSON schema.
/// Exposed separately so tests can check the encoding without touching the
/// filesystem. `obs_metrics` (may be nullptr) adds the "obs" section;
/// `sections` are written in the given order, each under its kName.
[[nodiscard]] std::string to_json(const std::string& bench_name,
                                  const BenchOptions& options, u64 base_seed,
                                  const std::vector<Metric>& metrics,
                                  double wall_seconds,
                                  const obs::Metrics* obs_metrics = nullptr,
                                  const std::vector<Section>& sections = {});

/// Validate a parsed trajectory against the docs/bench-output.md schema:
/// the top-level keys, the "obs" section, every present section's fields
/// (from its fields() list), the cross-field identities and the metrics
/// records. Returns an empty string on success, else the reason.
[[nodiscard]] std::string check_trajectory(const json::Value& root);

/// Write `body` to `path` (truncating); on failure prints to stderr and
/// returns false. Used for the --json/--trace/--profile sinks.
bool write_file(const std::string& path, const std::string& body,
                const std::string& context);

}  // namespace acs::bench
