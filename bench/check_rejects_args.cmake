# Runs a figure program with argument lists its parser must reject and fails
# unless every run exits 2 and prints usage on stderr, without running the
# figure.
#
#   cmake -DFIGURE=<path> -P check_rejects_args.cmake
set(bad_args
  "--oracle\;measured"
  "--bogus"
  "quick"
  "--seed=abc"
  "--threads="
  "--shards=2x")
foreach(args IN LISTS bad_args)
  execute_process(COMMAND ${FIGURE} ${args} OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: " OR NOT out STREQUAL "")
    message(FATAL_ERROR "${FIGURE} ${args}: exit ${rc}, stdout '${out}', stderr '${err}'")
  endif()
endforeach()
message(STATUS "${FIGURE}: every bad argument list exits 2 with usage")
