# CLI contract test for tools/metrics_dump, driven by ctest via `cmake -P`.
#
# Checks the exit-code contract end to end, as a shell user would hit it:
#   - unknown flags are usage errors (exit 2), not silently ignored
#   - an unwritable --out path fails up front (exit 2), before the demo farm
#   - a clean run exits 0 and writes a versioned snapshot
#
# Expects: -DMETRICS_DUMP=<path to binary> -DWORK_DIR=<scratch dir>

file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_status label expected actual)
  if(NOT actual EQUAL expected)
    message(FATAL_ERROR "${label}: expected exit ${expected}, got ${actual}")
  endif()
endfunction()

function(expect_contains label haystack needle)
  string(FIND "${haystack}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${label}: output missing \"${needle}\":\n${haystack}")
  endif()
endfunction()

# A typoed flag must not run the demo farm: exit 2 plus the usage text.
execute_process(COMMAND "${METRICS_DUMP}" --definitely-a-typo
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("unknown flag" 2 "${status}")
expect_contains("unknown flag" "${err}" "unknown flag --definitely-a-typo")
expect_contains("unknown flag" "${err}" "usage: metrics_dump")

# An --out path in a directory that does not exist fails up front.
execute_process(
    COMMAND "${METRICS_DUMP}" --out=${WORK_DIR}/no-such-dir/snapshot.json
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("unwritable --out" 2 "${status}")
expect_contains("unwritable --out" "${err}" "cannot write")

# Clean demo-farm run: exit 0, snapshot written, versioned, alerts section
# ahead of the metric rows (the fixed, byte-compared snapshot layout).
execute_process(COMMAND "${METRICS_DUMP}" --out=${WORK_DIR}/snapshot.json
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("demo farm" 0 "${status}")
file(READ "${WORK_DIR}/snapshot.json" snapshot)
expect_contains("snapshot" "${snapshot}" "\"snapshot\": \"honeyfarm\"")
expect_contains("snapshot" "${snapshot}" "\"schema_version\": 1")
expect_contains("snapshot" "${snapshot}" "\"alerts_schema_version\": 1")
expect_contains("snapshot" "${snapshot}" "\"metrics\": [")
string(FIND "${snapshot}" "\"alerts\"" alerts_at)
string(FIND "${snapshot}" "\"metrics\"" metrics_at)
if(alerts_at GREATER metrics_at)
  message(FATAL_ERROR "alerts section must precede metrics in snapshot JSON")
endif()

# The tool re-reads its own artifact (exit 0): parse and emit stay compatible.
execute_process(COMMAND "${METRICS_DUMP}" ${WORK_DIR}/snapshot.json
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("round trip" 0 "${status}")
expect_contains("round trip" "${out}" "snapshot: honeyfarm")

message(STATUS "metrics_dump CLI contract OK")
