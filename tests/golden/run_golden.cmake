# Golden-output runner: executes BIN (with optional ARGS), captures stdout,
# and byte-compares it against GOLDEN. Any difference fails the test and
# leaves the actual output at OUT for inspection (`diff GOLDEN OUT`).
#
# Each golden under tests/golden/ was captured from its bench before the
# bench was ported onto the ScenarioEngine (or, for a bench that was never
# hand-wired, before a change that could move it); these tests pin the
# "byte-identical default-mode output" guarantee. Regenerate a golden only
# for an intentional behavior change: `<bench> [args] > golden_<bench>.txt`.
if(NOT DEFINED BIN OR NOT DEFINED GOLDEN OR NOT DEFINED OUT)
  message(FATAL_ERROR "run_golden.cmake needs -DBIN, -DGOLDEN, -DOUT")
endif()

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BIN} ${arg_list}
  OUTPUT_FILE ${OUT}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
      "output differs from golden\n  golden: ${GOLDEN}\n  actual: ${OUT}\n"
      "Inspect with: diff ${GOLDEN} ${OUT}")
endif()
