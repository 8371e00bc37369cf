# Golden check for one model bench, run by the `PaperGolden.<bench>` ctests
# that rispp_paper_golden() in tests/CMakeLists.txt registers:
#
#   cmake -DBENCH=<bench exe> -DGOLDEN=<tests/data/paper/<bench>> \
#         -DWORK=<work dir> [-DARGS="<arg> ..."] -P paper_golden.cmake
#
# Runs the bench with ARGS (space-separated; none by default) in a fresh
# directory, then requires its stdout (golden file `stdout.txt`) and every
# file it wrote to match the golden directory byte for byte, with no file
# missing or extra. A `.json` file is compared with its top-level "meta"
# object removed from both sides: that provenance block names the compiler,
# build type and commit, so it differs between presets and commits.
#
# To regenerate a golden after a deliberate change, run the bench with the
# same arguments inside its golden directory and say why in CHANGES.md:
#   (cd tests/data/paper/<bench> && ../../../../build/bench/<bench> > stdout.txt)

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/cwd")
execute_process(COMMAND "${BENCH}" ${args}
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

# Writes `path` to `out` with the top-level "meta" object (the two-space
# indented `"meta": {...},` member that bench/meta_block.hpp writes) removed.
function(strip_meta path out)
  file(READ "${path}" text)
  string(REGEX REPLACE "\n  \"meta\": {[^}]*},?" "" text "${text}")
  file(WRITE "${out}" "${text}")
endfunction()

find_program(DIFF diff)
set(mismatched "")
foreach(name IN LISTS expected)
  set(want "${GOLDEN}/${name}")
  set(got "${WORK}/cwd/${name}")
  if(name STREQUAL "stdout.txt")
    set(got "${WORK}/stdout.txt")
  elseif(name MATCHES "\\.json$")
    file(MAKE_DIRECTORY "${WORK}/golden" "${WORK}/bench")
    strip_meta("${want}" "${WORK}/golden/${name}")
    strip_meta("${got}" "${WORK}/bench/${name}")
    set(want "${WORK}/golden/${name}")
    set(got "${WORK}/bench/${name}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${want}" "${got}"
                  RESULT_VARIABLE differs)
  if(differs)
    list(APPEND mismatched "${name}")
    if(DIFF)
      execute_process(COMMAND "${DIFF}" -u "${want}" "${got}")
    endif()
  endif()
endforeach()
if(mismatched)
  message(FATAL_ERROR "differs from ${GOLDEN}: ${mismatched}")
endif()
