# Golden check for `rispp_workload simulate`, run by the `SimulateGolden`
# ctest that tests/CMakeLists.txt registers:
#
#   cmake -DTOOL=<rispp_workload exe> -DCONFIG=<tests/data/phased_small.workload>
#         -DTRACE=<tests/data/phased_golden.trace>
#         -DGOLDEN=<tests/data/phased_report_golden.json> -DWORK=<work dir>
#         -P simulate_golden.cmake
#
# Simulates the phased config with 4 Atom Containers and a 5000-cycle
# quantum and requires the run report to equal the golden byte for byte.
# Then simulates the config's generated trace file with the same knobs: that
# report must equal the golden in everything but `scenario` (the config run
# names the workload, the trace run the file), so the config route and the
# trace-text route cannot drift apart.
#
# Regenerate the golden (after a deliberate model change) with
#   rispp_workload simulate --config=tests/data/phased_small.workload
#     --containers=4 --quantum=5000
#     --report-out=tests/data/phased_report_golden.json

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(simulate source label)
  execute_process(COMMAND "${TOOL}" simulate "${source}" --containers=4
                          --quantum=5000
                          "--report-out=${WORK}/${label}.report.json"
                  OUTPUT_FILE "${WORK}/${label}.out"
                  ERROR_FILE "${WORK}/${label}.err"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    file(READ "${WORK}/${label}.err" err)
    message(FATAL_ERROR "${TOOL} simulate ${source} exited with '${rc}':\n${err}")
  endif()
endfunction()

function(show_diff expected actual)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${expected}" "${actual}")
  endif()
endfunction()

simulate("--config=${CONFIG}" config)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${WORK}/config.report.json"
                RESULT_VARIABLE differs)
if(differs)
  show_diff("${GOLDEN}" "${WORK}/config.report.json")
  message(FATAL_ERROR "simulate --config=${CONFIG} differs from ${GOLDEN}")
endif()

simulate("--trace=${TRACE}" trace)
set(scenario_line "\"scenario\": \"[^\"]*\"")
file(READ "${GOLDEN}" golden)
file(READ "${WORK}/trace.report.json" candidate)
string(REGEX REPLACE "${scenario_line}" "\"scenario\": \"-\"" golden
       "${golden}")
string(REGEX REPLACE "${scenario_line}" "\"scenario\": \"-\"" candidate
       "${candidate}")
if(NOT golden STREQUAL candidate)
  file(WRITE "${WORK}/golden.unlabelled.json" "${golden}")
  file(WRITE "${WORK}/trace.unlabelled.json" "${candidate}")
  show_diff("${WORK}/golden.unlabelled.json" "${WORK}/trace.unlabelled.json")
  message(FATAL_ERROR
          "simulate --trace=${TRACE} differs from ${GOLDEN} beyond scenario")
endif()
