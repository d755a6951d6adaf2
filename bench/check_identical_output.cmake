# Runs a figure program at --quick twice, plainly and with EXTRA_ARGS (a
# comma-separated flag list), and fails unless both runs exit 0 and print
# byte-identical output.
#
#   cmake -DFIGURE=<path> -DEXTRA_ARGS=--threads=2 -P check_identical_output.cmake
string(REPLACE "," ";" extra "${EXTRA_ARGS}")
execute_process(COMMAND ${FIGURE} --quick OUTPUT_VARIABLE plain RESULT_VARIABLE plain_rc)
execute_process(COMMAND ${FIGURE} --quick ${extra} OUTPUT_VARIABLE varied RESULT_VARIABLE varied_rc)
if(NOT plain_rc EQUAL 0 OR NOT varied_rc EQUAL 0)
  message(FATAL_ERROR "${FIGURE}: exit ${plain_rc} at --quick, ${varied_rc} with ${EXTRA_ARGS}")
endif()
if(NOT plain STREQUAL varied)
  message(FATAL_ERROR "${FIGURE}: output with ${EXTRA_ARGS} differs from the plain --quick run")
endif()
message(STATUS "${FIGURE}: identical output with ${EXTRA_ARGS}")
