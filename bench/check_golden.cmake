# Run one bench and compare its stdout byte for byte with its golden file;
# with COLIBRI_GOLDEN_REGEN set (and not 0), rewrite the golden instead.
#   cmake -DBENCH=<exe> [-DARGS=--json] -DGOLDEN=<file> -P check_golden.cmake
execute_process(COMMAND ${BENCH} ${ARGS} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited ${rc}")
endif()
if(NOT "$ENV{COLIBRI_GOLDEN_REGEN}" STREQUAL "" AND
   NOT "$ENV{COLIBRI_GOLDEN_REGEN}" STREQUAL "0")
  file(WRITE "${GOLDEN}" "${out}")
  return()
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual}" "${out}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN} (this run's is in "
    "${actual}); regenerate with COLIBRI_GOLDEN_REGEN=1 if intended")
endif()
