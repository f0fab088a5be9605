# uncertts_cli must refuse numbers it cannot use: each case below exits
# non-zero and names the offending flag on stderr, while a valid sigma
# still runs. Registered as a ctest by the root CMakeLists.txt; by hand:
#
#   cmake -DCLI=build/uncertts_cli -DWORK_DIR=/tmp/cli \
#         -P tests/cli_flags_test.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR
          "usage: cmake -DCLI=<uncertts_cli> -DWORK_DIR=<dir> -P <this file>")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(data "${WORK_DIR}/gunpoint.ucr")
set(noisy "${WORK_DIR}/noisy.ucr")

# Runs the CLI with ARGN; sets rc and err in the caller.
macro(run_cli)
  string(JOIN " " command ${ARGN})
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
endmacro()

function(expect_rejected flag)
  run_cli(${ARGN})
  if(rc EQUAL 0)
    message(FATAL_ERROR "accepted: uncertts_cli ${command}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "stderr of 'uncertts_cli ${command}' does not name ${flag}: ${err}")
  endif()
endfunction()

function(expect_accepted)
  run_cli(${ARGN})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "rejected (${rc}): uncertts_cli ${command}: ${err}")
  endif()
endfunction()

expect_accepted(generate --name GunPoint --out "${data}"
                --series 12 --length 16)

expect_rejected(--sigma match --in "${data}" --measure uma --sigma 0)
expect_rejected(--sigma match --in "${data}" --measure dust --sigma nan)
expect_rejected(--sigma perturb --in "${data}" --out "${noisy}" --sigma inf)
expect_rejected(--sigma perturb --in "${data}" --out "${noisy}" --sigma -1)
expect_rejected(--lambda match --in "${data}" --measure uema --lambda -1)

expect_accepted(match --in "${data}" --measure uma --sigma 0.5)
