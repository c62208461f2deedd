# The simulator's src/perf build names this script through
# CMAKE_SOURCE_DIR, which is perfbench/ in the benchmark build; run the
# repository's own generator.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/GenerateBuildInfo.cmake)
