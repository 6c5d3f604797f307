# Runs the command given after `--` and passes only if it exits with status
# EXIT and its stderr matches the regex MATCH. Registered by
# kkt_add_exit_test (tests/CMakeLists.txt) for checks a plain WILL_FAIL
# cannot make: "exit 2 with an error: line" is the CLIs' usage-error
# contract, and an abort (exit 134) must not pass for it.
#
#   cmake -DEXIT=2 -DMATCH=error: -P expect_exit.cmake -- <command> [args...]
math(EXPR last "${CMAKE_ARGC} - 1")
set(cmd "")
set(after_sep FALSE)
foreach(i RANGE ${last})
  if(after_sep)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_sep TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}" OR NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "expected exit ${EXIT} with stderr matching "
    "'${MATCH}'; got exit ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
message(STATUS "exit ${rc} as expected:\n${err}")
