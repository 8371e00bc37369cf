# Golden check for a run report on the rotation-failure path, run by the
# `FaultReportGolden` ctest that tests/CMakeLists.txt registers:
#
#   cmake -DSWEEP=<rispp_sweep exe>
#         -DGOLDEN=<tests/data/fault_report_golden.json> -DWORK=<work dir>
#         -P fault_report_golden.cmake
#
# One phased sweep point on h264_frame with 16 tasks, 6 Atom Containers, a
# 15% rotation-fault probability, no retries and stale-rotation
# cancellation. Its run report holds what neither other report golden
# does: failed, cancelled and quarantined rotations, a wasted rotation and
# empty latency digests, with 16 tasks' forecast windows and upgrade rows
# driven through the failure path. `point_0.report.json` must equal the
# golden byte for byte.
#
# To regenerate after a deliberate change, run the same command from an
# empty directory and say why in CHANGES.md:
#   mkdir rep && rispp_sweep --platform=h264_frame --grid="<GRID below>" \
#     --seed=1 && cp rep/point_0.report.json tests/data/fault_report_golden.json

set(GRID "workload=phased;wl_tasks=16;wl_events=300;containers=6;fault_p=0.15;retries=0;cancel_stale=1;report_dir=rep")

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/rep")
execute_process(COMMAND "${SWEEP}" --platform=h264_frame "--grid=${GRID}"
                        --seed=1
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_FILE "${WORK}/sweep.csv"
                ERROR_FILE "${WORK}/sweep.err"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ "${WORK}/sweep.err" err)
  message(FATAL_ERROR "${SWEEP} exited with '${rc}':\n${err}")
endif()

set(report "${WORK}/rep/point_0.report.json")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${report}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${report}")
  endif()
  message(FATAL_ERROR "fault-path run report differs from ${GOLDEN}")
endif()
