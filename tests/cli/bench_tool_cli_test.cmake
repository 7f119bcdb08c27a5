# CLI contract test for tools/bench_tool, driven by ctest via `cmake -P`.
#
# Pins the exit-code contract (0 ok, 1 regression, 2 usage/schema/mismatch)
# on the committed BENCH reports and on crafted copies of them:
#   - a move off a zero baseline in the losing direction is a regression
#   - each row is judged by its declared `better`, not by its name or unit
#   - a missing baseline row or a changed declaration does not compare (2)
#   - runs with different shard counts are demoted; other hosts are not
#   - `validate` rejects unknown snapshot schema versions
#   - `check` trend-checks deterministic rows and never wallclock rows
#
# Expects: -DBENCH_TOOL=<binary> -DSOURCE_DIR=<repo root> -DWORK_DIR=<scratch>

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs bench_tool with ARGN and requires exit `expected`; leaves stdout and
# stderr in `out` / `err`.
function(run_tool label expected)
  execute_process(COMMAND "${BENCH_TOOL}" ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL expected)
    message(FATAL_ERROR
            "${label}: expected exit ${expected}, got ${status}\n${out}\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

function(expect_contains label haystack needle)
  string(FIND "${haystack}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${label}: output missing \"${needle}\":\n${haystack}")
  endif()
endfunction()

function(expect_lacks label haystack needle)
  string(FIND "${haystack}" "${needle}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${label}: output has \"${needle}\":\n${haystack}")
  endif()
endfunction()

# Writes a copy of the committed report `name` with regex `from` replaced by
# `to`; the pattern must match, so a re-baselined report cannot silently turn
# a crafted case into a self-compare.
function(craft dest name from to)
  file(READ "${SOURCE_DIR}/BENCH_${name}.json" text)
  string(REGEX REPLACE "${from}" "${to}" crafted "${text}")
  if(crafted STREQUAL text)
    message(FATAL_ERROR "craft ${dest}: /${from}/ matches nothing in ${name}")
  endif()
  file(WRITE "${WORK_DIR}/${dest}" "${crafted}")
endfunction()

# Writes a one-benchmark report with two deterministic rows (one lower-, one
# higher-is-better) and a wallclock row.
function(synthetic dest sha det rate wall)
  file(WRITE "${WORK_DIR}/${dest}" "{\"benchmark\": \"synthetic\", \
\"schema_version\": 2, \"seed\": 1, \"git_sha\": \"${sha}\", \"shards\": 1, \
\"host_threads\": 1, \"metrics\": [\
{\"metric\": \"det_ms\", \"value\": ${det}, \"unit\": \"ms\", \
\"better\": \"lower\", \"kind\": \"deterministic\"},\
{\"metric\": \"hit_rate\", \"value\": ${rate}, \"unit\": \"ratio\", \
\"better\": \"higher\", \"kind\": \"deterministic\"},\
{\"metric\": \"wall_ns\", \"value\": ${wall}, \"unit\": \"ns\", \
\"better\": \"lower\", \"kind\": \"wallclock\"}]}\n")
endfunction()

set(worm "${SOURCE_DIR}/BENCH_worm_containment.json")

# ---- Usage errors (2) ----
run_tool("no subcommand" 2)
expect_contains("no subcommand" "${err}" "usage:")
run_tool("unknown subcommand" 2 compare "${worm}" "${worm}")
run_tool("unknown diff flag" 2 diff --tolerance=0.1 "${worm}" "${worm}")
run_tool("removed import flag" 2 import --name=micro "${worm}")
run_tool("bad threshold" 2 diff --threshold=ten "${worm}" "${worm}")
run_tool("one report" 2 diff "${worm}")

# ---- Every committed artifact is schema-valid; a report matches itself ----
file(GLOB reports "${SOURCE_DIR}/BENCH_*.json")
run_tool("validate committed" 0 validate ${reports}
         "${SOURCE_DIR}/BENCH_TRAJECTORY.jsonl")
expect_contains("validate committed" "${out}" "trajectory, 16 entries")
run_tool("self diff" 0 diff "${worm}" "${worm}")

# ---- The three misjudged cases: 0 -> 5000 escapes, halved prefetch hit
# rate, a 30% dedup gain ----
craft(escapes.json worm_containment
      "\"escapes_reflect__keyed_\", \"value\": 0,"
      "\"escapes_reflect__keyed_\", \"value\": 5000,")
run_tool("zero-baseline escapes" 1 diff --threshold=0.10 "${worm}"
         "${WORK_DIR}/escapes.json")
expect_contains("zero-baseline escapes" "${out}" "+inf%  REGRESSED")

craft(hit_rate.json clone_concurrency
      "\"density_prefetch_hit_rate\", \"value\": 1,"
      "\"density_prefetch_hit_rate\", \"value\": 0.5,")
run_tool("halved hit rate" 1 diff --threshold=0.10
         "${SOURCE_DIR}/BENCH_clone_concurrency.json" "${WORK_DIR}/hit_rate.json")
expect_contains("halved hit rate" "${out}" "-50.0%  REGRESSED")

file(READ "${SOURCE_DIR}/BENCH_page_dedup.json" dedup)
string(REGEX REPLACE "(\"extra_reduction_8_vms\", \"value\": )[0-9.]+" "\\116.64"
       dedup "${dedup}")
string(REGEX REPLACE "(\"extra_reduction_32_vms\", \"value\": )[0-9.]+" "\\166.56"
       dedup "${dedup}")
string(REGEX REPLACE "(\"extra_reduction_128_vms\", \"value\": )[0-9.]+"
       "\\1266.24" dedup "${dedup}")
file(WRITE "${WORK_DIR}/dedup.json" "${dedup}")
run_tool("dedup gain" 0 diff --threshold=0.10
         "${SOURCE_DIR}/BENCH_page_dedup.json" "${WORK_DIR}/dedup.json")
expect_contains("dedup gain" "${out}" "+30.0%")
expect_lacks("dedup gain" "${out}" "REGRESSED")

# ---- Reports that do not compare (2) ----
craft(missing_row.json worm_containment "[^\n]*\"escapes_open\"[^\n]*\n" "")
run_tool("missing baseline row" 2 diff "${worm}" "${WORK_DIR}/missing_row.json")
expect_contains("missing baseline row" "${out}" "MISSING")
run_tool("new row only" 0 diff "${WORK_DIR}/missing_row.json" "${worm}")
expect_contains("new row only" "${out}" "NEW")

craft(redeclared.json clone_concurrency
      "(\"density_prefetch_hit_rate\"[^\n]*)\"higher\"" "\\1\"lower\"")
run_tool("declaration mismatch" 2 diff
         "${SOURCE_DIR}/BENCH_clone_concurrency.json" "${WORK_DIR}/redeclared.json")
expect_contains("declaration mismatch" "${out}" "declared higher/deterministic")

run_tool("different benchmarks" 2 diff "${worm}"
         "${SOURCE_DIR}/BENCH_page_dedup.json")
craft(v1.json worm_containment "\"schema_version\": 2" "\"schema_version\": 1")
run_tool("old report schema" 2 diff "${WORK_DIR}/v1.json" "${worm}")
expect_contains("old report schema" "${err}" "unsupported report schema_version 1")
file(READ "${worm}" text)
string(SUBSTRING "${text}" 0 200 truncated)
file(WRITE "${WORK_DIR}/truncated.json" "${truncated}")
run_tool("truncated report" 2 validate "${WORK_DIR}/truncated.json")
run_tool("unreadable report" 2 diff "${worm}" "${WORK_DIR}/absent.json")

# ---- Like-for-like guard: a report with a different shard count is shown
# but not enforced; a different host thread count does not demote (the farm
# is single-threaded at any shard count) ----
set(soak "${SOURCE_DIR}/BENCH_soak.json")
set(slow_row "(\"wallclock_ms\", \"value\": )[0-9.]+")
craft(slow_same_host.json soak "${slow_row}" "\\199999999")
run_tool("same host slowdown" 1 diff --threshold=0.35 "${soak}"
         "${WORK_DIR}/slow_same_host.json")
file(READ "${WORK_DIR}/slow_same_host.json" text)
string(REGEX REPLACE "\"host_threads\": [0-9]+" "\"host_threads\": 64" other
       "${text}")
file(WRITE "${WORK_DIR}/slow_other_host.json" "${other}")
run_tool("cross-host slowdown" 1 diff --threshold=0.35 "${soak}"
         "${WORK_DIR}/slow_other_host.json")
expect_lacks("cross-host slowdown" "${out}" "not like-for-like")
expect_contains("cross-host slowdown" "${out}" "REGRESSED")
string(REGEX REPLACE "\"shards\": [0-9]+" "\"shards\": 7" other "${text}")
file(WRITE "${WORK_DIR}/slow_other_shards.json" "${other}")
run_tool("cross-shard slowdown" 0 diff --threshold=0.35 "${soak}"
         "${WORK_DIR}/slow_other_shards.json")
expect_contains("cross-shard slowdown" "${out}" "not like-for-like")
expect_contains("cross-shard slowdown" "${out}" "REGRESSED")

# ---- Health snapshots ----
set(snapshot "{\"snapshot\": \"honeyfarm\", \"schema_version\": 1, \
\"sequence\": 3, \"time_ns\": 5000000000, \"alerts_schema_version\": 1, \
\"alerts\": [{\"alert\": \"breach\", \"metric\": \"escapes\", \"value\": 2, \
\"threshold\": 0, \"firing\": true, \"since_ns\": 100}], \
\"metrics\": [{\"metric\": \"vms.active\", \"value\": 8, \"unit\": \"vms\"}]}\n")
file(WRITE "${WORK_DIR}/snapshot.json" "${snapshot}")
run_tool("valid snapshot" 0 validate "${WORK_DIR}/snapshot.json")
expect_contains("valid snapshot" "${out}" "health snapshot")
string(REPLACE "\"schema_version\": 1" "\"schema_version\": 999" bad
       "${snapshot}")
file(WRITE "${WORK_DIR}/snapshot_999.json" "${bad}")
run_tool("snapshot schema 999" 2 validate "${WORK_DIR}/snapshot_999.json")
expect_contains("snapshot schema 999" "${err}"
                "unsupported snapshot schema_version 999")

# ---- Trajectory append + trend check: a worsening deterministic row fails
# in either direction; a rising wallclock row and an improving rate do not ----
set(history "${WORK_DIR}/history.jsonl")
synthetic(r1.json aaa 100 1.0 100)
synthetic(r2.json bbb 104 0.9 104)
synthetic(r3.json ccc 110 0.8 110)
run_tool("append" 0 trajectory "${history}" "${WORK_DIR}/r1.json"
         "${WORK_DIR}/r2.json")
run_tool("too short to check" 0 check "${history}")
expect_contains("too short to check" "${out}"
                "1 benchmark(s) with fewer than 3 entries not checked")
run_tool("append third" 0 trajectory "${history}" "${WORK_DIR}/r3.json")
run_tool("re-append same commit" 0 trajectory "${history}" "${WORK_DIR}/r3.json")
expect_contains("re-append same commit" "${out}" "0 appended, 1 unchanged")
run_tool("history valid" 0 validate "${history}")
expect_contains("history valid" "${out}" "trajectory, 3 entries")
run_tool("monotone rise" 1 check "${history}")
expect_contains("monotone rise" "${out}" "REGRESSION synthetic / det_ms")
expect_contains("monotone rise" "${out}" "REGRESSION synthetic / hit_rate")
expect_lacks("monotone rise" "${out}" "wall_ns")

set(wall_history "${WORK_DIR}/wall_history.jsonl")
synthetic(w1.json aaa 100 1.0 100)
synthetic(w2.json bbb 100 1.1 104)
synthetic(w3.json ccc 100 1.2 110)
run_tool("append wallclock rise" 0 trajectory "${wall_history}"
         "${WORK_DIR}/w1.json" "${WORK_DIR}/w2.json" "${WORK_DIR}/w3.json")
run_tool("wallclock rise ignored" 0 check "${wall_history}")
expect_contains("wallclock rise ignored" "${out}"
                "0 monotone regression(s) in 2 deterministic series")

run_tool("committed history" 0 check "${SOURCE_DIR}/BENCH_TRAJECTORY.jsonl")
file(WRITE "${WORK_DIR}/old_history.jsonl"
     "{\"trajectory_schema_version\":1,\"benchmark\":\"x\",\"metrics\":[[\"m\",1,\"ns\"]]}\n")
run_tool("old history format" 2 check "${WORK_DIR}/old_history.jsonl")
run_tool("missing history" 2 check "${WORK_DIR}/absent.jsonl")

# ---- import: google-benchmark JSON -> BENCH_micro.json ----
file(WRITE "${WORK_DIR}/gbench.json" "{\"context\": {\"num_cpus\": 4}, \
\"benchmarks\": [\
{\"name\": \"BM_Parse\", \"iterations\": 10, \"real_time\": 12.0, \
\"cpu_time\": 12.5, \"time_unit\": \"ns\"},\
{\"name\": \"BM_Fault/64\", \"iterations\": 10, \"real_time\": 1.0, \
\"cpu_time\": 2.0, \"time_unit\": \"us\", \"items_per_second\": 32000000}]}\n")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env POTEMKIN_BENCH_DIR=${WORK_DIR}
            "${BENCH_TOOL}" import "${WORK_DIR}/gbench.json"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "import: exit ${status}\n${err}")
endif()
file(READ "${WORK_DIR}/BENCH_micro.json" micro)
expect_contains("import" "${micro}" "\"schema_version\": 2")
expect_contains("import" "${micro}" "{\"metric\": \"BM_Parse\", \"value\": 12.5, \
\"unit\": \"ns\", \"better\": \"lower\", \"kind\": \"wallclock\"}")
expect_contains("import" "${micro}" "{\"metric\": \"BM_Fault_64_items_per_s\", \
\"value\": 32000000, \"unit\": \"items/s\", \"better\": \"higher\", \
\"kind\": \"wallclock\"}")
run_tool("imported report valid" 0 validate "${WORK_DIR}/BENCH_micro.json")
run_tool("import of a BENCH report" 2 import "${worm}")

message(STATUS "bench_tool CLI contract OK")
