# Runs one bench sweep and byte-compares its output with a committed
# golden file. ctest invokes it once per sweep (see CMakeLists.txt):
#
#   cmake -DBENCH=<bench binary> -DARGS="<flags>" -DGOLDEN=<golden file>
#         -DOUT=<output file> -P check_sweep.cmake
#
# To refresh a golden after an intended output change, run the bench with
# the same flags and `--out tests/golden/<file>`.
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${bench_args} --out "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${OUT}" got)
  file(READ "${GOLDEN}" want)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}\n"
                      "--- got:\n${got}\n--- want:\n${want}")
endif()
