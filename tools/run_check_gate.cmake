# Gate-integrity check for bench_json_check's topology work identities:
# the checked-in reference must validate, and a copy with one machine-work
# counter zeroed must be rejected with that identity's message:
#   attempts_run  = 0 -> "attempts_run < forks"
#   cow_pages_run = 0 -> "cow_pages_run < cow_pages_copied"
# Inputs: -DCHECKER=<bench_json_check> -DREFERENCE=<topology json>
#         -DSCRATCH=<scratch dir>

if(NOT DEFINED CHECKER OR NOT DEFINED REFERENCE OR NOT DEFINED SCRATCH)
  message(FATAL_ERROR
          "run_check_gate.cmake needs CHECKER, REFERENCE, SCRATCH")
endif()

execute_process(COMMAND "${CHECKER}" "${REFERENCE}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_json_check rejected the reference (exit ${rc})\n"
                      "${out}${err}")
endif()

file(READ "${REFERENCE}" reference)
foreach(case "attempts_run|attempts_run < forks"
             "cow_pages_run|cow_pages_run < cow_pages_copied")
  string(REPLACE "|" ";" case "${case}")
  list(GET case 0 key)
  list(GET case 1 identity)
  string(REGEX REPLACE "\"${key}\": [0-9]+" "\"${key}\": 0" body "${reference}")
  if(body STREQUAL reference)
    message(FATAL_ERROR "no nonzero '${key}' in ${REFERENCE} to break")
  endif()
  set(broken "${SCRATCH}/BENCH_check_gate_${key}.json")
  file(WRITE "${broken}" "${body}")
  execute_process(COMMAND "${CHECKER}" "${broken}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${out}${err}" "${identity}" hit)
  if(rc EQUAL 0 OR hit EQUAL -1)
    message(FATAL_ERROR "bench_json_check did not reject ${key} = 0 with "
                        "'${identity}' (exit ${rc})\n${out}${err}")
  endif()
endforeach()

message(STATUS "bench_json_check gate: both work identities reject")
