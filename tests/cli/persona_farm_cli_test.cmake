# CLI contract test for examples/persona_farm's `--no-bench`, driven by ctest
# via `cmake -P`.
#
# CI's persona-smoke job runs persona_farm twice and gates the first run's
# BENCH report against the committed baseline; the second run passes
# `--no-bench` so it cannot overwrite that baseline. This pins both halves in
# a scratch dir: with `--no-bench` no BENCH_persona_farm.json appears, and
# without it the report is written (so the first check is not vacuous).
#
# Expects: -DPERSONA_FARM=<path to binary> -DWORK_DIR=<scratch dir>

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(report "${WORK_DIR}/BENCH_persona_farm.json")

# Runs persona_farm with ARGN from WORK_DIR, reports pointed at WORK_DIR so a
# stray write can never reach the checkout's committed baseline.
function(run_persona label)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "POTEMKIN_BENCH_DIR=${WORK_DIR}"
            "${PERSONA_FARM}" --seed 11 ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${label}: expected exit 0, got ${status}\n${out}\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

run_persona("--no-bench" --no-bench)
if(EXISTS "${report}")
  message(FATAL_ERROR "--no-bench wrote ${report}")
endif()
string(FIND "${out}" "bench report:" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "--no-bench printed a bench report line:\n${out}")
endif()

run_persona("default")
if(NOT EXISTS "${report}")
  message(FATAL_ERROR "default run did not write ${report}:\n${out}")
endif()
