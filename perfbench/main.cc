// acs_perfbench: one workload, one process, a fixed thread count.
//
//   acs_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--pins perfbench/expected.txt] [--trace-out PATH]
//   acs_perfbench --pin W                  (prints pin-file lines)
//
// The last line of standard output is the result object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// With --trace 0 it holds the end-to-end metrics, with --trace 1 the
// per-layer ledger. perfbench/run.py builds this binary and runs it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::string pin;
  std::string pins = "perfbench/expected.txt";
  std::string trace_out;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// The benchmark's thread count: at most nproc on the 4-core reference
/// host, and 2 leaves room for the host's own work.
constexpr unsigned kThreads = 2;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "acs_perfbench: %s\nusage: acs_perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--pins FILE] [--trace-out FILE]\n"
               "       acs_perfbench --pin W\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--pin") {
      args.pin = value;
    } else if (flag == "--pins") {
      args.pins = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() == args.pin.empty()) {
    usage("give exactly one of --workload and --pin");
  }
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

/// Nearest-rank percentile of `xs` (sorted copy).
double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::min(xs.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it does not carry over the peak of the process that exec'd us.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  if (kib <= 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

void print_result(bool correct, u64 attempted, u64 failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Set-up repetitions per run; setup_s is their median. The first one
/// precedes the loop, the others replace the workload between rounds, off
/// the loop's clock, so that they sample the host as the loop does. As
/// many as fit in kSetupShare of --seconds, within [kMinSetups, kMaxSetups].
constexpr double kSetupShare = 0.1;
constexpr double kMinSetups = 9;
constexpr double kMaxSetups = 51;

/// kThreads in total: library threads of one client for exec-driven
/// workloads, else kThreads closed-loop clients of one-thread ops.
unsigned op_threads(const Workload& workload) {
  return workload.threaded() ? kThreads : 1;
}
unsigned clients(const Workload& workload) {
  return workload.threaded() ? 1 : kThreads;
}

/// Ops first .. first + count - 1, issued closed-loop by clients(workload):
/// each client starts its next op as soon as its previous op returns.
/// Fills one outcome and one host time (ms) per op.
void run_ops(Workload& workload, u64 first, u64 count,
             std::vector<OpOutcome>& outcomes, std::vector<double>& times) {
  outcomes.assign(count, OpOutcome{});
  times.assign(count, 0);
  const unsigned threads = op_threads(workload);
  std::atomic<u64> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // first op exception, rethrown after join
  const auto client = [&] {
    try {
      for (u64 i; (i = next++) < count;) {
        const double t0 = wall_now();
        outcomes[i] = workload.run_op(first + i, threads, nullptr, nullptr);
        times[i] = (wall_now() - t0) * 1e3;
      }
    } catch (...) {
      const std::lock_guard lock(error_mutex);
      if (!error) error = std::current_exception();
      next = count;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned c = 1; c < clients(workload); ++c) pool.emplace_back(client);
  client();
  for (auto& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

/// Build a fresh workload and run its warm-up ops 0, 1, ... the way the
/// loop runs ops. `warmup` receives op 0, the thread-invariance probe,
/// with `ok` set only if every warm-up op passed. Returns the set-up time
/// in seconds.
double set_up(const Args& args, const Pins& pins,
              std::unique_ptr<Workload>& workload, OpOutcome& warmup) {
  const double t0 = wall_now();
  workload = make_workload(args.workload, args.seed, pins);
  workload->setup();
  std::vector<OpOutcome> outcomes;
  std::vector<double> times;
  run_ops(*workload, 0, workload->warmup_ops(), outcomes, times);
  const double seconds = wall_now() - t0;
  warmup = outcomes.front();
  warmup.ok = std::all_of(outcomes.begin(), outcomes.end(),
                          [](const OpOutcome& o) { return o.ok; });
  return seconds;
}

int run_end_to_end(const Args& args, const Pins& pins) {
  std::unique_ptr<Workload> workload;
  OpOutcome warmup;
  std::vector<double> setups = {set_up(args, pins, workload, warmup)};
  bool warmup_ok = warmup.ok;
  const double n_setups = std::clamp(
      std::floor(kSetupShare * args.seconds / setups.front()), kMinSetups,
      kMaxSetups);
  // Thread-invariance self-check: the exec determinism contract, checked
  // from outside on the warm-up op.
  bool invariant = true;
  if (workload->threaded()) {
    const OpOutcome single = workload->run_op(0, 1, nullptr, nullptr);
    invariant = single.output == warmup.output;
    std::fprintf(stderr, "[perfbench] thread invariance (1 vs %u threads): %s\n",
                 kThreads, invariant ? "identical" : "MISMATCH");
  }

  // Closed loop of whole rounds for --seconds.
  std::vector<OpOutcome> outcomes;
  std::vector<double> times;
  std::vector<double> op_ms;
  std::map<std::string, std::vector<double>> by_config;
  double work = 0;
  u64 failed = 0;
  const u64 round = workload->round_ops();
  double elapsed = 0;
  u64 index = 0;
  while (elapsed < args.seconds) {
    if (elapsed >=
        args.seconds * static_cast<double>(setups.size()) / n_setups) {
      // Release the workload first, so that only one is resident; an op
      // depends only on the seed and its index, so the loop goes on with
      // the new one.
      workload.reset();
      OpOutcome next_warmup;
      setups.push_back(set_up(args, pins, workload, next_warmup));
      warmup_ok = warmup_ok && next_warmup.ok;
    }
    const double round_start = wall_now();
    run_ops(*workload, index, round, outcomes, times);
    elapsed += wall_now() - round_start;
    for (u64 i = 0; i < round; ++i, ++index) {
      const OpOutcome& outcome = outcomes[i];
      op_ms.push_back(times[i]);
      by_config[outcome.key.substr(0, outcome.key.find('#'))].push_back(
          times[i]);
      work += outcome.work;
      if (!outcome.ok) {
        ++failed;
        std::fprintf(stderr, "[perfbench] op %llu (%s) output mismatch: %s\n",
                     static_cast<unsigned long long>(index),
                     outcome.key.c_str(), outcome.output.c_str());
      }
    }
  }

  const double tail = workload->tail_percentile();
  const auto ops = static_cast<u64>(op_ms.size());
  if (static_cast<double>(ops) * (1 - tail / 100) < 10) {
    std::fprintf(stderr,
                 "[perfbench] warning: %llu ops leave fewer than ten beyond "
                 "p%g\n",
                 static_cast<unsigned long long>(ops), tail);
  }
  std::fprintf(stderr,
               "[perfbench] %s: %llu ops in %.3f s, %u client(s) x %u "
               "thread(s), work in %s, tail = p%g, failed_share = %.6g\n",
               args.workload.c_str(), static_cast<unsigned long long>(ops),
               elapsed, clients(*workload), op_threads(*workload),
               workload->throughput_unit().c_str(),
               tail,
               static_cast<double>(failed) / static_cast<double>(ops));
  std::fprintf(stderr, "[perfbench] set-up samples (s):");
  for (const double t : setups) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
  if (by_config.size() <= 32) {
    for (const auto& [key, config_ms] : by_config) {
      std::fprintf(stderr, "  %-28s %4zu ops  median %9.3f ms\n", key.c_str(),
                   config_ms.size(), median(config_ms));
    }
  }
  if (auto* spec = dynamic_cast<SpecSim*>(workload.get())) {
    const auto [rate, speed] = spec->pacstack_geomean();
    std::printf("PACStack geomean overhead (simulated cycles): rate %.3f%% "
                "(paper ~2.75%%), speed %.3f%% (paper ~3.28%%)\n",
                rate, speed);
  }

  const std::vector<Metric> metrics = {
      {"throughput", work / elapsed, "work/s"},
      {"op_p50_ms", median(op_ms), "ms"},
      {"op_tail_ms", percentile(op_ms, tail), "ms"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const bool correct = warmup_ok && invariant && failed == 0;
  print_result(correct, ops, failed, metrics);
  return correct ? 0 : 1;
}

int run_traced(const Args& args, const Pins& pins) {
  auto workload = make_workload(args.workload, args.seed, pins);
  workload->setup();
  const std::string trace_path =
      args.trace_out.empty()
          ? "perfbench-trace-" + args.workload + ".json"
          : args.trace_out;
  std::vector<Metric> metrics;
  u64 attempted = 0;
  u64 failed = 0;
  const bool ok = traced_run(*workload, kThreads, args.seconds,
                             trace_path, metrics, attempted, failed);
  print_result(ok && failed == 0, std::max<u64>(attempted, 1), failed,
               metrics);
  return ok && failed == 0 ? 0 : 1;
}

int run_pin(const Args& args, const Pins& pins) {
  auto workload = make_workload(args.pin, 1, pins);
  workload->setup();
  for (const std::string& line : workload->pin_lines(kThreads)) {
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    Pins pins;
    if (!args.pin.empty()) return run_pin(args, pins);
    pins.load(args.pins);
    return args.trace ? run_traced(args, pins) : run_end_to_end(args, pins);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acs_perfbench: %s\n", e.what());
    return 1;
  }
}
