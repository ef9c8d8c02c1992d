// E14 — serving tail latency and multi-tier topology under correlated
// fault storms (src/workload/topology.h), both on the one topology engine.
//
// The tail sweep: one pool of 4 CoW-forked workers behind a 32-deep
// queue, swept over scheme x offered load x injected-fault rate (all six
// fault kinds). Crashed attempts free their worker and re-queue after a
// saturating backoff, up to 3 retries. Per configuration the bench reports
// end-to-end p50/p99/p999 in *simulated cycles* (obs::LogHistogram) and
// queue-full rejections (backpressure). Tags: "pacstack_tail_load110_f500".
// Every faulted tail arm, smoke or full, must retry at least once: an arm
// whose faults never crash an attempt equals its fault-free arm and
// measures no faulted tail, so the bench fails loudly instead.
//
// The storm sweep: requests traverse two tiers of worker pools behind
// per-tier load balancers, carrying an end-to-end deadline. The sweep is
// scheme x offered load x storm intensity x mitigation arm:
//   none          no budget, breaker, or shedding — the control arm
//   retry-budget  retries bounded by a per-pool token bucket
//   breaker-shed  retry budget + circuit breaker + priority shedding +
//                 expired-entry dropping
//
// The headline is *metastability*: with a mid-trace fault storm on one
// pool, the unmitigated arm's post-storm goodput stays collapsed after
// the storm ends (the backlog of stale work never drains ahead of fresh
// arrivals), while breaker-shed recovers within the same trace.
//
// Both sweeps land in the "topology" JSON section (sweep totals +
// per-configuration outcome entries with latency summaries) and in
// per-configuration "obs" counters (topo.* + per-tier gauges), pinned
// against a checked-in reference by the bench_topology_invariance ctest
// target. --trace records one representative stormed breaker-shed
// configuration's per-tier span timeline. Every integer section is bitwise
// identical for any --threads value.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/table.h"
#include "inject/plan.h"
#include "obs/metrics.h"
#include "workload/topology.h"

int main(int argc, char** argv) {
  using namespace acs;
  using compiler::Scheme;
  using workload::Mitigation;

  const auto options =
      bench::parse_bench_args(argc, argv, "bench_serving_topology",
                              /*extra_usage=*/nullptr, /*obs_flags=*/true);
  bench::BenchReporter reporter("bench_serving_topology", options, 42);
  if (!options.profile_path.empty()) {
    // Reject up front rather than silently writing an empty profile: the
    // topology simulation does not collect folded cycle stacks.
    std::fprintf(stderr, "bench_serving_topology: --profile is not wired to "
                         "the topology simulation\n");
    return 2;
  }

  const bool collect_metrics = !options.json_path.empty();
  std::string trace_json;
  bench::TopologySection totals;

  std::printf("PACStack reproduction — multi-tier serving topology under "
              "correlated fault storms\n");
  std::printf("(2 tiers x 3 pools x 1 worker; storm melts tier0/pool0 over "
              "the middle of the trace;\n goodput = completions within "
              "deadline; post = goodput/arrivals after the storm ends)\n\n");

  Table sweep({"scheme", "load %", "storm f/M", "mitigation", "goodput",
               "post", "p99", "dropped", "failed", "trips"});

  const struct {
    Scheme scheme;
    const char* label;
  } kSchemes[] = {{Scheme::kNone, "baseline"}, {Scheme::kPacStack, "pacstack"}};
  const std::vector<unsigned> loads =
      options.smoke ? std::vector<unsigned>{90}
                    : std::vector<unsigned>{80, 90};
  const std::vector<double> storms =
      options.smoke ? std::vector<double>{0, 8000}
                    : std::vector<double>{0, 3000, 8000};
  const Mitigation kArms[] = {Mitigation::kNone, Mitigation::kRetryBudget,
                              Mitigation::kBreakerShed};

  obs::Metrics obs_metrics;
  bool traced = false;
  // Runs one sweep point and folds it into the obs metrics, the trace and
  // the "topology" section under `tag`; callers add their table row and
  // metric records.
  const auto run_point = [&](Scheme scheme, workload::TopologyConfig config,
                             const std::string& tag, bool trace_this) {
    config.threads = options.threads;
    config.collect_metrics = collect_metrics;
    config.trace = trace_this;
    auto result = workload::run_topology_simulation(scheme, config);
    if (collect_metrics) obs_metrics.merge(result.metrics, tag + ".");
    if (trace_this) {
      trace_json = result.trace_json;
      traced = true;
    }

    totals.requests += result.requests;
    totals.completed += result.completed;
    totals.dropped += result.dropped;
    totals.failed += result.failed;
    totals.goodput += result.goodput;
    totals.deadline_missed += result.deadline_missed;
    totals.crashed_attempts += result.crashed_attempts;
    totals.retries += result.retries;
    totals.retry_budget_denied += result.retry_budget_denied;
    totals.hedges += result.hedges;
    totals.breaker_trips += result.breaker_trips;
    totals.breaker_probes += result.breaker_probes;
    totals.forks += result.forks;
    totals.cow_pages_copied += result.cow_pages_copied;
    totals.backoff_cycles += result.backoff_cycles;
    totals.gauge_samples += result.gauge_samples;
    totals.attempts_run += result.attempts_run;
    totals.cow_pages_run += result.cow_pages_run;
    totals.plan_entries_drawn += result.plan_entries_drawn;
    totals.faults_delivered += result.faults_delivered;
    for (const auto& [cause, count] : result.drops) {
      totals.drops[cause] += count;
    }
    totals.configs[tag] = bench::TopologyEntry{
        .requests = result.requests,
        .completed = result.completed,
        .dropped = result.dropped,
        .failed = result.failed,
        .goodput = result.goodput,
        .deadline_missed = result.deadline_missed,
        .crashed_attempts = result.crashed_attempts,
        .retries = result.retries,
        .breaker_trips = result.breaker_trips,
        .phases = {.pre_storm = {.arrivals = result.pre_storm.arrivals,
                                 .goodput = result.pre_storm.goodput},
                   .storm = {.arrivals = result.storm.arrivals,
                             .goodput = result.storm.goodput},
                   .post_storm = {.arrivals = result.post_storm.arrivals,
                                  .goodput = result.post_storm.goodput}},
        .latency =
            bench::LatencySummary{
                .p50 = result.latency.p50(),
                .p90 = result.latency.p90(),
                .p99 = result.latency.p99(),
                .p999 = result.latency.p999(),
                .max = result.latency.max(),
                .count = result.latency.count(),
            },
    };
    return result;
  };

  for (const auto& scheme : kSchemes) {
    for (const unsigned load : loads) {
      for (const double storm : storms) {
        for (const Mitigation arm : kArms) {
          workload::TopologyConfig config;
          config.tiers = 2;
          config.pools_per_tier = 3;
          config.workers_per_pool = 1;
          config.requests = options.smoke ? 400 : 600;
          config.load_percent = load;
          config.queue_capacity = 64;
          config.storm_faults_per_million = storm;
          config.storm_begin_permille = 150;
          config.storm_end_permille = 750;
          // Budget-exhaust faults hang the victim until the per-attempt
          // watchdog fires — the expensive failure mode a storm needs to
          // push a tier past saturation (see workload/topology.h).
          config.fault_kinds = {inject::FaultKind::kBudgetExhaust};
          config.seed = 42;
          workload::apply_mitigation(config, arm);
          // Trace one representative configuration: the first stormed
          // breaker-shed pacstack point — its timeline shows tier hops,
          // breaker trips/probes, shedding, and deadline misses at once.
          const bool trace_this = !options.trace_path.empty() && !traced &&
                                  scheme.scheme == Scheme::kPacStack &&
                                  storm > 0 && arm == Mitigation::kBreakerShed;
          const std::string tag =
              std::string(scheme.label) + "_load" + std::to_string(load) +
              "_s" + std::to_string(static_cast<int>(storm)) + "_" +
              workload::mitigation_name(arm);
          const auto result =
              run_point(scheme.scheme, config, tag, trace_this);

          const std::string post =
              std::to_string(result.post_storm.goodput) + "/" +
              std::to_string(result.post_storm.arrivals);
          sweep.add_row({scheme.label, std::to_string(load),
                         Table::fmt(storm, 0), workload::mitigation_name(arm),
                         std::to_string(result.goodput), post,
                         std::to_string(result.latency.p99()),
                         std::to_string(result.dropped),
                         std::to_string(result.failed),
                         std::to_string(result.breaker_trips)});
          reporter.record("goodput_" + tag,
                          static_cast<double>(result.goodput), "requests",
                          result.requests);
          reporter.record("post_storm_goodput_" + tag,
                          static_cast<double>(result.post_storm.goodput),
                          "requests", result.post_storm.arrivals);
          reporter.record("p99_" + tag,
                          static_cast<double>(result.latency.p99()), "cycles",
                          result.latency.count());
          reporter.record("crashed_attempts_" + tag,
                          static_cast<double>(result.crashed_attempts),
                          "attempts", result.requests);
        }
      }
    }
  }
  sweep.print(std::cout);
  std::printf("\nmetastability: under a storm the 'none' arm's post column "
              "collapses and stays\ncollapsed after the storm ends; "
              "breaker-shed recovers within the same trace.\n");

  std::printf("\nTail latency of one pool (1 tier x 1 pool x 4 workers, "
              "queue 32, up to 3 retries;\nall six fault kinds; latencies "
              "are end-to-end simulated cycles)\n\n");
  Table tail({"scheme", "load %", "faults/M", "p50", "p99", "p999",
              "rejected", "failed", "retries"});
  const std::vector<unsigned> tail_loads =
      options.smoke ? std::vector<unsigned>{70, 110}
                    : std::vector<unsigned>{60, 90, 120};
  // The smoke's attempts run ~1-2k instructions, so its faulted rate must
  // put a fault inside most attempts for every arm to retry. The full
  // sweep's low rate is the lowest integer rate at which all six of its
  // arms retry: each rate draws its own fault stream, so retries are not
  // monotone in the rate.
  const std::vector<double> tail_rates =
      options.smoke ? std::vector<double>{0, 500}
                    : std::vector<double>{0, 11, 60};
  bool faulted_tail_ok = true;
  for (const auto& scheme : kSchemes) {
    for (const unsigned load : tail_loads) {
      for (const double rate : tail_rates) {
        workload::TopologyConfig config;
        config.tiers = 1;
        config.pools_per_tier = 1;
        config.workers_per_pool = 4;
        config.requests = options.smoke ? 60 : 250;
        config.load_percent = load;
        config.queue_capacity = 32;
        config.max_restarts = 3;
        config.faults_per_million = rate;
        // The tail sweep's own pinned seed; the reporter's 42 is the storm
        // sweep's.
        config.seed = 180;
        const std::string tag = std::string(scheme.label) + "_tail_load" +
                                std::to_string(load) + "_f" +
                                std::to_string(static_cast<int>(rate));
        const auto result =
            run_point(scheme.scheme, config, tag, /*trace_this=*/false);
        const u64 rejected = result.drops.at("queue-full");

        tail.add_row({scheme.label, std::to_string(load), Table::fmt(rate, 0),
                      std::to_string(result.latency.p50()),
                      std::to_string(result.latency.p99()),
                      std::to_string(result.latency.p999()),
                      std::to_string(rejected), std::to_string(result.failed),
                      std::to_string(result.retries)});
        reporter.record("p50_" + tag,
                        static_cast<double>(result.latency.p50()), "cycles",
                        result.latency.count());
        reporter.record("p99_" + tag,
                        static_cast<double>(result.latency.p99()), "cycles",
                        result.latency.count());
        reporter.record("p999_" + tag,
                        static_cast<double>(result.latency.p999()), "cycles",
                        result.latency.count());
        reporter.record("rejected_" + tag, static_cast<double>(rejected),
                        "requests", result.requests);
        if (rate > 0 && result.retries == 0) {
          std::fprintf(stderr,
                       "bench_serving_topology: faulted tail arm %s never "
                       "retried; it pins no faulted tail\n",
                       tag.c_str());
          faulted_tail_ok = false;
        }
      }
    }
  }
  tail.print(std::cout);
  std::printf("\nlatency = completion - arrival (queue wait + attempts + "
              "backoff), simulated cycles.\nbackpressure: arrivals beyond "
              "queue_capacity=32 are rejected, not queued.\n");

  bool ok = faulted_tail_ok;
  if (!options.trace_path.empty()) {
    ok = bench::write_file(options.trace_path, trace_json,
                           "bench_serving_topology --trace") &&
         ok;
    if (ok) std::printf("[trace] wrote %s\n", options.trace_path.c_str());
  }
  if (collect_metrics) reporter.set_obs_metrics(std::move(obs_metrics));
  reporter.set_section(std::move(totals));
  return (reporter.finish() && ok) ? 0 : 1;
}
