# Fails when a file under src/tensor or src/nn includes util/thread_pool.h.
# Kernels run on the calling thread; the fleet scheduler's per-user slots
# are the only parallelism (DESIGN.md §8).
#
#   cmake -DSRC_DIR=<repo>/src -P tests/kernels_include_no_thread_pool.cmake
file(GLOB_RECURSE files "${SRC_DIR}/tensor/*" "${SRC_DIR}/nn/*")
list(LENGTH files checked)
if(checked EQUAL 0)
  message(FATAL_ERROR "no files under ${SRC_DIR}/tensor or ${SRC_DIR}/nn")
endif()
set(offenders "")
foreach(f IN LISTS files)
  file(STRINGS "${f}" hits
       REGEX "^[ \t]*#[ \t]*include[ \t]*[<\"][^>\"]*thread_pool\\.h[>\"]")
  if(hits)
    list(APPEND offenders "${f}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " shown)
  message(FATAL_ERROR "kernel files include util/thread_pool.h:\n  ${shown}")
endif()
message(STATUS "${checked} files under src/tensor and src/nn; none includes "
               "util/thread_pool.h")
