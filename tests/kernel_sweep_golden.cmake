# Golden check for the reallocation kernel over generated libraries, run by
# the `KernelSweepGolden` ctest that tests/CMakeLists.txt registers:
#
#   cmake -DSWEEP=<rispp_sweep exe> -DGOLDEN=<tests/data/kernel_sweep_golden.csv>
#         -DWORK=<work dir> -P kernel_sweep_golden.cmake
#
# 144 points: two generated libraries in each lattice shape, three AC
# budgets, with and without rotation faults, both selectors and both the
# eager and the cost-aware gate. The CSV on stdout must match the golden
# byte for byte (the run summary goes to stderr and is not compared).
#
# To regenerate after a deliberate change, run the same command and say why
# in CHANGES.md:
#   build/tools/rispp_sweep --grid="<GRID below>" --jobs=1 --seed=3 \
#     > tests/data/kernel_sweep_golden.csv

set(GRID "workload=generated;lib_seed=1,2;lib_shape=chains,flat,mixed;containers=2,4,8;fault_p=0,0.05;selector=greedy,exhaustive;cost_factor=0,0.5")

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${SWEEP}" "--grid=${GRID}" --jobs=1 --seed=3
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_FILE "${WORK}/sweep.csv"
                ERROR_FILE "${WORK}/sweep.err"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ "${WORK}/sweep.err" err)
  message(FATAL_ERROR "${SWEEP} exited with '${rc}':\n${err}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${WORK}/sweep.csv"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${WORK}/sweep.csv")
  endif()
  message(FATAL_ERROR "kernel sweep differs from ${GOLDEN}")
endif()
