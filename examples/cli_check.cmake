# Runs one example or bench binary and checks how it ends. Used by the CLI
# tests (appscope_cli_test in the top-level CMakeLists.txt):
#
#   cmake -DPROGRAM=<binary> -DARGS=<a|b|...> -DEXIT=<code>
#         [-DMATCH=<regex>] [-DNO_MATCH=<regex>] -P cli_check.cmake
#
# ARGS separates arguments with '|'. The test fails unless the exit code is
# EXIT, the combined stdout and stderr match MATCH, and they do not match
# NO_MATCH.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(output "${out}${err}")
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXIT}; output:\n${output}")
endif()
if(DEFINED MATCH AND NOT output MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${output}")
endif()
if(DEFINED NO_MATCH AND output MATCHES "${NO_MATCH}")
  message(FATAL_ERROR "output matches '${NO_MATCH}':\n${output}")
endif()
