# Error-path runner: executes BIN with ARGS and asserts it exits with
# EXIT_CODE and that its stderr contains every |-separated fragment of
# EXPECT. Used to pin that the CLI reports rejected specs as a usage error
# (exit 2 plus a message) instead of dying on an uncaught exception, and
# that the benches reject bad flags (and bench_core bad output paths) up
# front.
if(NOT DEFINED BIN OR NOT DEFINED EXIT_CODE OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "expect_error.cmake needs -DBIN, -DEXIT_CODE, -DEXPECT")
endif()

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BIN} ${arg_list}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXIT_CODE)
  message(FATAL_ERROR
      "${BIN} ${ARGS}\n  exited with '${rc}', expected ${EXIT_CODE}\n"
      "  stderr: ${err}")
endif()

string(REPLACE "|" ";" fragments "${EXPECT}")
foreach(fragment IN LISTS fragments)
  string(FIND "${err}" "${fragment}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
        "stderr lacks '${fragment}'\n  stderr: ${err}")
  endif()
endforeach()
