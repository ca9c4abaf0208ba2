# Runs one paper-figure binary and compares its stdout byte for byte with a
# committed golden file (the `paper` ctest label, see bench/CMakeLists.txt):
#
#   cmake -DCMD=<binary> [-DARGS="<space-separated args>"] -DGOLDEN=<file>
#         -DACTUAL=<file> [-DFILTER=<regex>] -P check_golden.cmake
#
# FILTER keeps only the output lines that start with the regex, so a golden
# can pin one line of a longer report. On a mismatch the actual output is
# written to ACTUAL and a unified diff is printed.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} ${ARGS} exited with ${rc}")
endif()

if(DEFINED FILTER)
  string(REGEX MATCHALL "\n${FILTER}[^\n]*" matches "\n${actual}")
  set(actual "")
  foreach(line IN LISTS matches)
    string(SUBSTRING "${line}" 1 -1 line)
    string(APPEND actual "${line}\n")
  endforeach()
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "output differs from ${GOLDEN} (actual: ${ACTUAL})")
endif()
