# Golden check for the sweep's two JSON artifacts, run by the
# `SweepArtifactsGolden` ctest that tests/CMakeLists.txt registers:
#
#   cmake -DSWEEP=<rispp_sweep exe>
#         -DSUMMARY=<tests/data/sweep_summary_golden.json>
#         -DSHARD=<tests/data/sweep_shard_golden.jsonl> -DWORK=<work dir>
#         -P sweep_artifacts_golden.cmake
#
# Four encoder points (two AC budgets, two quanta). The streaming summary
# (`--agg-out`, "rispp.sweep_summary", docs/FORMATS.md §7.3) and the JSONL
# shard manifest (`--out-shard`, "rispp.sweep_shard", §7.1) must equal the
# goldens byte for byte: the summary pins the trimmed six-decimal reals of
# the aggregate, the manifest the compact tree dump of every row. The run
# summary on stderr is not compared.
#
# To regenerate after a deliberate change, run the same command from an
# empty directory and say why in CHANGES.md:
#   rispp_sweep --grid="<GRID below>" --seed=1 --agg-out=summary.json \
#     --out-shard=shard.jsonl
#   cp summary.json tests/data/sweep_summary_golden.json
#   cp shard.jsonl tests/data/sweep_shard_golden.jsonl

set(GRID "workload=enc;frames=1;mb=20;containers=4,6;quantum=10000,30000")

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${SWEEP}" "--grid=${GRID}" --seed=1
                        --agg-out=summary.json --out-shard=shard.jsonl
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_FILE "${WORK}/sweep.out"
                ERROR_FILE "${WORK}/sweep.err"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ "${WORK}/sweep.err" err)
  message(FATAL_ERROR "${SWEEP} exited with '${rc}':\n${err}")
endif()

set(failed "")
foreach(pair "${SUMMARY}|summary.json" "${SHARD}|shard.jsonl")
  string(REPLACE "|" ";" pair "${pair}")
  list(GET pair 0 golden)
  list(GET pair 1 produced)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${golden}" "${WORK}/${produced}"
                  RESULT_VARIABLE differs)
  if(differs)
    find_program(DIFF diff)
    if(DIFF)
      execute_process(COMMAND "${DIFF}" -u "${golden}" "${WORK}/${produced}")
    endif()
    list(APPEND failed "${produced}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "sweep artifacts differ from their goldens: ${failed}")
endif()
