# Golden check for one model bench, run by the `PaperGolden.<bench>` ctests
# that rispp_paper_golden() in tests/CMakeLists.txt registers:
#
#   cmake -DBENCH=<bench exe> -DGOLDEN=<tests/data/paper/<bench>> \
#         -DWORK=<work dir> -P paper_golden.cmake
#
# Runs the bench with no arguments in a fresh directory, then requires its
# stdout (golden file `stdout.txt`) and every file it wrote to match the
# golden directory byte for byte, with no file missing or extra.
#
# To regenerate a golden after a deliberate change, run the bench inside its
# golden directory and say why in CHANGES.md:
#   (cd tests/data/paper/<bench> && ../../../../build/bench/<bench> > stdout.txt)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/cwd")
execute_process(COMMAND "${BENCH}"
                WORKING_DIRECTORY "${WORK}/cwd"
                OUTPUT_FILE "${WORK}/stdout.txt"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with '${rc}'")
endif()

file(GLOB expected RELATIVE "${GOLDEN}" "${GOLDEN}/*")
file(GLOB written RELATIVE "${WORK}/cwd" "${WORK}/cwd/*")
set(actual stdout.txt ${written})
list(SORT expected)
list(SORT actual)
if(NOT expected STREQUAL actual)
  message(FATAL_ERROR "file set differs\n  golden: ${expected}\n"
                      "  bench:  ${actual}")
endif()

find_program(DIFF diff)
set(mismatched "")
foreach(name IN LISTS expected)
  set(got "${WORK}/cwd/${name}")
  if(name STREQUAL "stdout.txt")
    set(got "${WORK}/stdout.txt")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN}/${name}" "${got}"
                  RESULT_VARIABLE differs)
  if(differs)
    list(APPEND mismatched "${name}")
    if(DIFF)
      execute_process(COMMAND "${DIFF}" -u "${GOLDEN}/${name}" "${got}")
    endif()
  endif()
endforeach()
if(mismatched)
  message(FATAL_ERROR "differs from ${GOLDEN}: ${mismatched}")
endif()
