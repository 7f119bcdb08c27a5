# CLI contract test for tools/forensics, driven by ctest via `cmake -P`.
#
# The acceptance check for the forensics tool: replay the canned outbreak and
# require that --session reconstructs the COMPLETE causal chain for a farm
# address — first contact through clone, guest interaction, exploit,
# infection, and the containment verdict — from ledger records alone. Also
# pins the exit-code contract (unknown flag -> 2, untouched address -> 1) and
# the JSONL/Chrome export schemas.
#
# Expects: -DFORENSICS=<path to binary> -DWORK_DIR=<scratch dir>

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

# Unknown flags are usage errors.
execute_process(COMMAND "${FORENSICS}" --sessoin=10.1.0.1
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("unknown flag" 2 "${status}")
expect_contains("unknown flag" "${err}" "unknown flag --sessoin")
expect_contains("unknown flag" "${err}" "usage: forensics")

# An address nothing touched has no session to stitch: exit 1, not a crash
# and not an empty success. (The outbreak saturates the whole farm /24, so an
# off-farm address is the only one guaranteed untouched.)
execute_process(COMMAND "${FORENSICS}" --seconds=2 --session=192.0.2.9
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("untouched address" 1 "${status}")
expect_contains("untouched address" "${err}" "no session touched 192.0.2.9")

# The headline reconstruction: 10.1.0.1 is the worm's first victim, so its
# timeline must walk the full attack arc in causal order.
execute_process(
    COMMAND "${FORENSICS}" --seconds=10 --session=10.1.0.1
        --jsonl=${WORK_DIR}/ledger.jsonl --chrome=${WORK_DIR}/trace.json
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_status("session timeline" 0 "${status}")
set(previous_at -1)
foreach(stage
    first_contact packet_queued clone_requested clone_started clone_done
    packet_delivered guest_request exploit infection containment_reflect)
  string(FIND "${out}" "${stage}" stage_at)
  if(stage_at EQUAL -1)
    message(FATAL_ERROR "timeline missing stage \"${stage}\":\n${out}")
  endif()
  if(stage_at LESS previous_at)
    message(FATAL_ERROR "timeline stage \"${stage}\" out of causal order")
  endif()
  set(previous_at ${stage_at})
endforeach()
expect_contains("session timeline" "${out}" "198.51.100.66 -> 10.1.0.1")
expect_contains("session timeline" "${out}" "10.1.0.1 infected by 198.51.100.66")

# JSONL export: meta line first, versioned, then one object per record.
file(READ "${WORK_DIR}/ledger.jsonl" jsonl)
string(FIND "${jsonl}" "{\"ledger\":\"potemkin\",\"schema_version\":1" meta_at)
if(NOT meta_at EQUAL 0)
  message(FATAL_ERROR "ledger.jsonl must start with the versioned meta line")
endif()
foreach(key seq time_ns session type a b)
  expect_contains("ledger.jsonl" "${jsonl}" "\"${key}\":")
endforeach()
expect_contains("ledger.jsonl" "${jsonl}" "\"type\":\"infection\"")

# Chrome export: trace_event envelope with per-session tracks.
file(READ "${WORK_DIR}/trace.json" trace)
expect_contains("trace.json" "${trace}" "\"traceEvents\"")
expect_contains("trace.json" "${trace}" "\"ph\":\"i\"")
expect_contains("trace.json" "${trace}" "session 1")
# Clone spans derived from the ledger's begin/end pairs.
expect_contains("trace.json" "${trace}" "\"ph\":\"X\"")
expect_contains("trace.json" "${trace}" "\"name\":\"clone\"")

message(STATUS "forensics CLI contract OK")
