# Golden check for `rispp_report profile`, run by the `ReportProfileGolden`
# ctest that tests/CMakeLists.txt registers:
#
#   cmake -DTOOL=<rispp_report exe> -DTRACE=<tests/data/fig06_golden.csv>
#         -DGOLDEN=<tests/data/fig06_report_golden.json> -DWORK=<work dir>
#         -P report_profile_golden.cmake
#
# Replays the fig06 CSV trace golden through the CLI and requires the
# printed report to equal the fig06 report golden byte for byte: the CSV
# route and the live `--report-out=` route must not disagree.

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${TOOL}" profile --scenario=fig06 "${TRACE}"
                OUTPUT_FILE "${WORK}/fig06.report.json"
                ERROR_FILE "${WORK}/profile.err"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ "${WORK}/profile.err" err)
  message(FATAL_ERROR "${TOOL} exited with '${rc}':\n${err}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${WORK}/fig06.report.json"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${WORK}/fig06.report.json")
  endif()
  message(FATAL_ERROR "rispp_report profile of ${TRACE} differs from ${GOLDEN}")
endif()
