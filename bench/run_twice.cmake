# Runs a bench twice and fails when either run exits nonzero or the two runs
# print different stdout.  Every bench is a deterministic simulation, so one
# binary must print byte-identical output run after run.
#
#   cmake -DBENCH=<bench executable> [-DARGS=<arguments>] -P run_twice.cmake
#
# ARGS, a CMake list, is passed to both runs.
#
# On a mismatch both outputs are left in the working directory as
# run1.out and run2.out for diffing.
if(NOT BENCH)
  message(FATAL_ERROR
    "usage: cmake -DBENCH=<bench executable> [-DARGS=<arguments>] "
    "-P run_twice.cmake")
endif()

foreach(run 1 2)
  execute_process(COMMAND ${BENCH} ${ARGS}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out${run})
  if(run EQUAL 1)
    message("${out1}")
  endif()
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH}: run ${run} exited with ${rc}")
  endif()
endforeach()

if(NOT out1 STREQUAL out2)
  file(WRITE run1.out "${out1}")
  file(WRITE run2.out "${out2}")
  message(FATAL_ERROR
    "${BENCH}: the second run printed different output than the first "
    "(see run1.out and run2.out)")
endif()
