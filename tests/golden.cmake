# One golden case, run by every ctest that rispp_golden() in
# tests/CMakeLists.txt registers:
#
#   cmake "-DCOMMAND=<exe>|<arg>|..." "-DEXPECT=<output>|<golden>|..."
#         -DGOLDEN_DIR=<tests/data> -DWORK=<work dir> -P golden.cmake
#
# Runs COMMAND in the fresh directory <WORK>/cwd, after creating the parent
# directories of the outputs it names. An output is `stdout` or a file the
# command writes there; a golden is a path under GOLDEN_DIR. The case fails
# when the command exits non-zero, when a named output is missing or
# differs from its golden by one byte (`diff -u` shows how), or when the
# command wrote a file that no pair names. stderr is never compared, and
# stdout only when a pair names it.
#
# The lists are joined with `|` because an argument may hold `;` (a grid
# spec), which CMake would split; the call site writes it as $<SEMICOLON>.
#
# To regenerate a golden after a deliberate change, run the command this
# script prints (`ctest -V -R <name>` shows it) in an empty directory, copy
# each named output over its golden and say why in CHANGES.md.

cmake_minimum_required(VERSION 3.16)

string(REPLACE ";" "\\;" COMMAND "${COMMAND}")
string(REPLACE "|" ";" COMMAND "${COMMAND}")
string(REPLACE "|" ";" EXPECT "${EXPECT}")
list(LENGTH EXPECT n)
math(EXPR last "${n} - 1")

set(cwd "${WORK}/cwd")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${cwd}")
set(outputs "")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET EXPECT ${i} output)
  list(GET EXPECT ${j} golden)
  message(STATUS "expect ${output} = ${GOLDEN_DIR}/${golden}")
  list(APPEND outputs "${output}")
  if(NOT output STREQUAL "stdout")
    get_filename_component(dir "${cwd}/${output}" DIRECTORY)
    file(MAKE_DIRECTORY "${dir}")
  endif()
endforeach()

set(shown "")
foreach(arg IN LISTS COMMAND)
  if(arg MATCHES "[^A-Za-z0-9_./=,:+-]")
    set(arg "'${arg}'")
  endif()
  string(APPEND shown " ${arg}")
endforeach()
message(STATUS "in ${cwd}:${shown}")

execute_process(COMMAND ${COMMAND}
                WORKING_DIRECTORY "${cwd}"
                OUTPUT_FILE "${WORK}/stdout"
                ERROR_FILE "${WORK}/stderr"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ "${WORK}/stderr" err)
  message(FATAL_ERROR "exited with '${rc}':\n${err}")
endif()

find_program(DIFF diff)
set(failed "")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET EXPECT ${i} output)
  list(GET EXPECT ${j} golden)
  set(golden "${GOLDEN_DIR}/${golden}")
  set(got "${cwd}/${output}")
  if(output STREQUAL "stdout")
    set(got "${WORK}/stdout")
  endif()
  if(NOT EXISTS "${got}")
    list(APPEND failed "${output} (missing)")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${golden}" "${got}"
                  RESULT_VARIABLE differs)
  if(differs)
    list(APPEND failed "${output}")
    if(DIFF)
      execute_process(COMMAND "${DIFF}" -u "${golden}" "${got}")
    endif()
  endif()
endforeach()

file(GLOB_RECURSE written RELATIVE "${cwd}" "${cwd}/*")
foreach(file IN LISTS written)
  if(NOT file IN_LIST outputs)
    list(APPEND failed "${file} (no golden)")
  endif()
endforeach()

if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "differs from its goldens: ${failed}")
endif()
