# Runs the command given after `--` and fails unless it exits with
# EXPECT_EXIT. With OUTPUT set, the file is removed first and must exist
# afterwards.
#
#   cmake -DEXPECT_EXIT=2 [-DOUTPUT=file] -P expect_exit.cmake -- cmd args...
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()
if(DEFINED OUTPUT)
  file(REMOVE "${OUTPUT}")
endif()
execute_process(COMMAND ${command} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit ${rc}, want ${EXPECT_EXIT}: ${command}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED OUTPUT AND NOT EXISTS "${OUTPUT}")
  message(FATAL_ERROR "${command} did not write ${OUTPUT}")
endif()
message(STATUS "exit ${rc} as expected; stderr:\n${err}")
