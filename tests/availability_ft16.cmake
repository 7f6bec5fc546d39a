# `nsrel availability --scheme none --ft 16 --r 20` end to end: 131071
# transient states through the GTH occupancy route, which must finish
# well inside the test's TIMEOUT and print the degraded share.
# Run by ctest as: cmake -DNSREL=<path to nsrel> -P availability_ft16.cmake
execute_process(
  COMMAND ${NSREL} availability --scheme none --ft 16 --r 20
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nsrel availability exited ${rc}:\n${err}")
endif()
string(FIND "${out}" "degraded (rebuild):  0.140 % of time" at)
if(at EQUAL -1)
  message(FATAL_ERROR "unexpected availability output:\n${out}")
endif()
