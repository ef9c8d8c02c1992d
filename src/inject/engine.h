// The fault-injection engine: per-level cursors over a plan that is drawn
// on demand, plus outcome counters.
//
// One Engine serves one simulated machine (machines are sequential; no
// locking). Attachment mirrors obs::Recorder: kernel::MachineOptions holds
// an `inject::Engine*` that defaults to nullptr, the machine hands the
// engine's CPU-level cursor to the first created hart via
// sim::Cpu::set_injector, and every hook site in the hot path is a single
// never-taken null check when no engine is attached.
//
// The engine also keeps the campaign summary: how many faults of each
// kind were actually delivered, and — for kChainCorrupt, the Section 6.1
// guessing adversary — how many guesses were attempted and how many hit
// the live PAC field. Campaigns merge summaries in trial order.
#pragma once

#include <array>
#include <vector>

#include "common/types.h"
#include "inject/plan.h"

namespace acs::inject {

/// Delivered-fault counters for one machine (or one merged campaign).
struct Summary {
  std::array<u64, kNumFaultKinds> injected{};  ///< indexed by FaultKind
  u64 guess_attempts = 0;   ///< kChainCorrupt faults delivered
  u64 guess_successes = 0;  ///< guesses that matched the live PAC field

  void merge(const Summary& other) noexcept {
    for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
      injected[i] += other.injected[i];
    }
    guess_attempts += other.guess_attempts;
    guess_successes += other.guess_successes;
  }

  [[nodiscard]] u64 total_injected() const noexcept {
    u64 total = 0;
    for (const u64 n : injected) total += n;
    return total;
  }
};

/// One delivery level's faults in delivery order, the next one buffered:
/// the level's share of a drawn plan merged by `at_instr` with hand-built
/// faults, drawn faults first on ties (docs/fault-injection.md "Lazy
/// plans"). Draws skip the other level's faults, so each level pulls only
/// as far as its own next fault.
class LevelCursor {
 public:
  LevelCursor() = default;
  /// `drawn` is the whole drawn plan (both levels); `built` holds this
  /// level's hand-built faults, sorted stably by `at_instr`.
  LevelCursor(bool cpu_level, const PlanCursor& drawn,
              std::vector<PlannedFault> built);

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  /// The next fault (only meaningful while armed()).
  [[nodiscard]] const PlannedFault& head() const noexcept { return head_; }
  /// Faults that have reached the head so far.
  [[nodiscard]] u64 drawn() const noexcept { return drawn_count_; }

  /// Hand out the head and buffer the level's next fault.
  [[nodiscard]] PlannedFault take() noexcept;

 private:
  /// Pull the drawn plan up to this level's next fault.
  void pull_drawn() noexcept;
  /// Move the earlier of the drawn and hand-built heads into head_.
  void refill() noexcept;

  bool cpu_level_ = false;
  PlanCursor plan_;
  bool plan_armed_ = false;  ///< plan_head_ holds this level's next draw
  PlannedFault plan_head_;
  std::vector<PlannedFault> built_;
  std::size_t built_next_ = 0;
  bool armed_ = false;
  PlannedFault head_;
  u64 drawn_count_ = 0;
};

class Engine;

/// CPU-level cursor: owned by the Engine, installed on one hart. The hart
/// polls `due()` once per stepped instruction (two loads and a compare
/// when armed) and applies the fault itself — the CPU has the
/// architectural knowledge, the cursor only sequences the plan and
/// records outcomes.
class TaskInjector {
 public:
  /// Pc-triggered faults (at_pc != 0) count executions of their PC here, so
  /// due() must be polled exactly once per executed step while one is next
  /// (Cpu::run steps whenever quiet_steps() is 0).
  [[nodiscard]] bool due(u64 instr, u64 call_depth, u64 pc) noexcept {
    if (!faults_.armed()) return false;
    const PlannedFault& fault = faults_.head();
    if (fault.at_pc != 0) {
      if (pc != fault.at_pc) return false;
      return ++pc_hits_ >= fault.occurrence;
    }
    if (instr < fault.at_instr) return false;
    return call_depth >= fault.min_depth ||
           instr >= fault.at_instr + kDepthGrace;
  }

  /// Instructions the hart may retire without polling due(), at retired
  /// count `instr`: all of them when no CPU-level fault remains, none
  /// while the next fault is due or deferred or pc-triggered, else the
  /// count left before the next fault's `at_instr`.
  [[nodiscard]] u64 quiet_steps(u64 instr) const noexcept {
    if (!faults_.armed()) return ~u64{0};
    const PlannedFault& fault = faults_.head();
    if (fault.at_pc != 0 || instr >= fault.at_instr) return 0;
    return fault.at_instr - instr;
  }

  /// The due fault, without consuming it — lets the hart defer kinds that
  /// need a particular architectural moment (kChainCorrupt waits for a
  /// call instruction, where the chain register is guaranteed live).
  [[nodiscard]] const PlannedFault& peek() const noexcept {
    return faults_.head();
  }

  /// The fault to apply now; advances the cursor (and resets the pc-hit
  /// counter for the next pc-triggered fault).
  [[nodiscard]] PlannedFault take() noexcept {
    pc_hits_ = 0;
    return faults_.take();
  }

  /// PAC-field guess width (bits) for kChainCorrupt faults.
  [[nodiscard]] unsigned guess_window() const noexcept;

  /// Record a delivered fault (guess_success only meaningful for
  /// kChainCorrupt).
  void record(FaultKind kind, bool guess_success = false) noexcept;

 private:
  friend class Engine;
  explicit TaskInjector(Engine* engine) : engine_(engine) {}

  Engine* engine_;
  LevelCursor faults_;
  u64 pc_hits_ = 0;  ///< executions of the current fault's at_pc so far
};

class Engine {
 public:
  struct Config {
    /// Faults drawn on demand from this plan configuration; the default
    /// (mean_interval 0, no burst) draws none.
    PlanConfig draw;
    /// Hand-built faults, any order. Each delivery level merges them with
    /// its drawn faults by `at_instr`, drawn first on ties.
    std::vector<PlannedFault> plan;
    /// Width (bits) of the CR PAC-field window a kChainCorrupt guess
    /// targets. Small windows model the paper's partial-pointer reuse
    /// setting where the effective guess space is b bits (Section 6.1).
    unsigned guess_window = 4;
  };

  explicit Engine(Config config);

  /// The CPU-level cursor for the machine's first hart; the machine calls
  /// this once at task creation. Subsequent calls return nullptr (worker
  /// processes are single-hart; one victim hart keeps plans exact).
  [[nodiscard]] TaskInjector* attach() noexcept;

  /// Kernel-level cursor, polled per scheduling slice against the
  /// process's instruction clock.
  [[nodiscard]] bool kernel_due(u64 instr) const noexcept {
    return kernel_faults_.armed() && instr >= kernel_faults_.head().at_instr;
  }
  [[nodiscard]] PlannedFault kernel_take() noexcept {
    return kernel_faults_.take();
  }

  void record(FaultKind kind, bool guess_success = false) noexcept;

  [[nodiscard]] unsigned guess_window() const noexcept {
    return guess_window_;
  }
  [[nodiscard]] const Summary& summary() const noexcept { return summary_; }
  /// Plan entries drawn or handed in that have reached either level's
  /// look-ahead so far: every delivered fault was drawn first.
  [[nodiscard]] u64 drawn() const noexcept {
    return cpu_cursor_.faults_.drawn() + kernel_faults_.drawn();
  }

 private:
  TaskInjector cpu_cursor_;
  LevelCursor kernel_faults_;
  unsigned guess_window_;
  bool attached_ = false;
  Summary summary_;
};

}  // namespace acs::inject
