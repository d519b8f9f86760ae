# Runs one paper-experiment bench and fails unless its stdout equals the
# committed golden file byte for byte.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt> -DOUT=<output .txt>
#         -P compare.cmake
#
# To refresh a golden file after an intended change of a paper output, run
# the bench and copy its stdout over tests/golden/<bench>.txt.
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${OUT}")
  endif()
  message(FATAL_ERROR "${OUT} differs from golden ${GOLDEN}")
endif()
