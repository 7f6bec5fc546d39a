# `nsrel analyze --scheme none --ft 16 --r 20` end to end: the failure-word
# walk over 131071 transient states straight into the GTH kernel's rows,
# which must finish well inside the test's TIMEOUT and print the MTTDL.
# Run by ctest as: cmake -DNSREL=<path to nsrel> -P analyze_ft16.cmake
execute_process(
  COMMAND ${NSREL} analyze --scheme none --ft 16 --r 20
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nsrel analyze exited ${rc}:\n${err}")
endif()
string(FIND "${out}" "MTTDL:             1.66e+49 h (1.89e+45 yr)" at)
if(at EQUAL -1)
  message(FATAL_ERROR "unexpected analyze output:\n${out}")
endif()
