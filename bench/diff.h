// acs-bench-diff core: compare two BENCH_*.json trajectories and flag
// regressions (docs/bench-output.md "Comparing trajectories").
//
// Both documents are flattened to dotted-path -> numeric-leaf maps
// ("topology.configs.pacstack_tail_load110_f500.latency.p999",
// "metrics.p99_....value");
// the named "metrics" array is keyed by metric name, not index, so
// reordering records is not a diff. Host-timing keys (wall_seconds, the
// echoed thread count, instr/sec rates) are ignored — everything else in a
// trajectory is deterministic, so the comparison can be strict.
//
// A key regresses when its relative change exceeds the threshold:
//   |current - baseline| / max(|baseline|, |current|) > threshold
// (symmetric, defined at zero, direction-agnostic — a tail percentile
// collapsing to zero is as suspicious as one exploding). A baseline key
// missing from the current trajectory is always a regression; a new key in
// the current trajectory is schema growth and only counted.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench/json_view.h"

namespace acs::bench {

struct DiffOptions {
  double threshold = 0.10;  ///< max tolerated relative change per key
  /// Leaf keys excluded from comparison (host timing). Extendable by the
  /// CLI's --ignore; defaults set in diff.cc.
  std::vector<std::string> ignored_keys;
};

/// One flagged key.
struct Regression {
  std::string key;
  double baseline = 0;
  double current = 0;          ///< 0 when `missing`
  double relative_change = 0;  ///< 1 when `missing`
  bool missing = false;        ///< key absent from the current trajectory
};

struct DiffResult {
  std::vector<Regression> regressions;  ///< flattened-path order
  std::size_t compared = 0;             ///< keys checked against threshold
  std::size_t ignored = 0;              ///< keys skipped as host timing
  std::size_t added = 0;                ///< current-only keys (not flagged)

  [[nodiscard]] bool ok() const { return regressions.empty(); }
};

/// Flatten every numeric leaf of `root` into dotted paths. Arrays index as
/// "[i]" except arrays of {"name": ...} objects (the "metrics" section),
/// which key by the name. Exposed for tests.
[[nodiscard]] std::map<std::string, double> flatten_numeric_leaves(
    const json::Value& root);

/// Dotted path of the first non-finite (NaN/Inf) numeric leaf in `root`,
/// or empty when every numeric leaf is finite. A non-finite leaf means the
/// producing bench emitted a poisoned double — the trajectory is garbage,
/// not a baseline, and diff_files refuses it with a dedicated exit-2
/// diagnostic rather than letting NaN comparisons pass silently.
[[nodiscard]] std::string first_nonfinite_leaf(const json::Value& root);

/// Compare two parsed trajectories. Exposed for tests.
[[nodiscard]] DiffResult diff_documents(const json::Value& baseline,
                                        const json::Value& current,
                                        const DiffOptions& options);

/// Render a machine-readable verdict document:
///   {"verdict": "ok"|"regression", "threshold": ..., "compared": ...,
///    "ignored": ..., "added": ..., "regressions": [{"key", "baseline",
///    "current", "relative_change", "missing"}, ...]}
[[nodiscard]] std::string verdict_json(const DiffResult& result,
                                       const DiffOptions& options);

/// File-level driver: parse both paths and compare. Returns 0 (within
/// thresholds), 1 (regression), or 2 (unreadable / malformed input).
/// `*out` receives the verdict JSON on 0/1 and the error message on 2.
[[nodiscard]] int diff_files(const std::string& baseline_path,
                             const std::string& current_path,
                             const DiffOptions& options, std::string* out);

}  // namespace acs::bench
