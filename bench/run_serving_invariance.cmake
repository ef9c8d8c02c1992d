# Pins the thread-invariance determinism contract shared by the campaign
# benches (bench_fault_availability, bench_sim_throughput,
# bench_serving_topology, bench_kernel_sweep) and acs-fuzz: the JSON
# trajectory — including every deterministic section ("obs", "faults",
# "fuzz", "sim", "topology", "kernels") — must be bitwise identical for
# --threads 1, 2 and 8. Only host timing (wall_seconds) and the echoed
# thread count may differ, so both lines are always stripped before
# comparing; benches that additionally report host-timed rates (e.g. the
# instr/sec fields of bench_sim_throughput) list those field names in
# STRIP_FIELDS and every line mentioning one is stripped as well.
#
# Optionally (when DIFF and REFERENCE are given) the threads=1 trajectory
# is also compared against the checked-in reference JSON with acs-bench-diff
# at --threshold=0 — the regression gate. The run is bitwise deterministic,
# so every numeric leaf but the host-timing keys must match exactly.
# Inputs: -DBENCH=<bench binary> -DJSON_DIR=<scratch dir>
#         -DPREFIX=<output-file prefix, e.g. "topology">
#         [-DBENCH_ARGS=<;-list of arguments, default --smoke>]
#         [-DSTRIP_FIELDS=<;-list of host-timed field names to strip>]
#         [-DDIFF=<acs-bench-diff> -DREFERENCE=<baseline json>]

if(NOT DEFINED BENCH OR NOT DEFINED JSON_DIR OR NOT DEFINED PREFIX)
  message(FATAL_ERROR
          "run_serving_invariance.cmake needs BENCH, JSON_DIR and PREFIX")
endif()
if(NOT DEFINED BENCH_ARGS)
  set(BENCH_ARGS --smoke)
endif()
if(NOT DEFINED STRIP_FIELDS)
  set(STRIP_FIELDS "")
endif()

set(reference "")
foreach(threads 1 2 8)
  set(json "${JSON_DIR}/BENCH_${PREFIX}_invariance_t${threads}.json")
  file(REMOVE "${json}")
  execute_process(
    COMMAND "${BENCH}" ${BENCH_ARGS} "--threads=${threads}" "--json=${json}"
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_err
  )
  if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
            "${BENCH} --threads=${threads} exited with ${bench_rc}\n"
            "stdout:\n${bench_out}\nstderr:\n${bench_err}")
  endif()
  if(NOT EXISTS "${json}")
    message(FATAL_ERROR "${BENCH} did not write ${json}")
  endif()

  # Strip host timing (wall_seconds), the echoed thread count, and any
  # bench-specific host-timed fields — the only lines allowed to differ
  # between runs.
  file(READ "${json}" body)
  string(REGEX REPLACE "\n *\"wall_seconds\":[^\n]*" "" body "${body}")
  string(REGEX REPLACE "\n *\"threads\":[^\n]*" "" body "${body}")
  foreach(field IN LISTS STRIP_FIELDS)
    # Drops both section lines ("<field>": ...) and metric lines
    # ({"name": "<field>", ...}); a substring match so suffixed variants
    # (e.g. ips_interpreter_alu) fall under the base field name.
    string(REGEX REPLACE "\n[^\n]*\"${field}[^\n]*" "" body "${body}")
  endforeach()

  if(reference STREQUAL "")
    set(reference "${body}")
    set(reference_threads ${threads})
  elseif(NOT body STREQUAL reference)
    message(FATAL_ERROR
            "trajectory differs between --threads=${reference_threads} and "
            "--threads=${threads}: determinism contract violated "
            "(see ${json})")
  endif()
endforeach()

message(STATUS "${BENCH} trajectories identical for --threads 1/2/8")

if(DEFINED DIFF AND DEFINED REFERENCE)
  set(current "${JSON_DIR}/BENCH_${PREFIX}_invariance_t1.json")
  execute_process(
    COMMAND "${DIFF}" "${REFERENCE}" "${current}" --threshold=0
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ERROR_VARIABLE diff_err
  )
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
            "acs-bench-diff flagged the ${PREFIX} trajectory against the "
            "checked-in reference (exit ${diff_rc})\n"
            "stdout:\n${diff_out}\nstderr:\n${diff_err}")
  endif()
  message(STATUS "acs-bench-diff: ${PREFIX} trajectory matches the "
                 "checked-in reference")
endif()
