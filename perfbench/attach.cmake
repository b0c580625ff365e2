# Passed to the simulator's own configure step as CMAKE_PROJECT_INCLUDE
# (see run.py). The simulator's targets name their include directories
# from CMAKE_SOURCE_DIR, so the benchmark cannot be a separate top-level
# project that adds ../src. Instead its CMakeLists.txt is included once
# the root CMakeLists.txt has defined every target, so the driver is
# built with the build type, LTO and feature options exactly as the
# repository sets them.
# Deferred-call arguments are expanded when the call runs, hence the
# variable.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
    CALL include "${PERFBENCH_DIR}/CMakeLists.txt")
