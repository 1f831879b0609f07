# Injected into the repo's top-level project() through
# CMAKE_PROJECT_INCLUDE (see run.py). It defers including the
# benchmark's CMakeLists.txt to the end of the top-level one, so the
# benchmark is compiled with exactly the flags, build type and library
# targets the repo defines, and the repo's own build files stay
# untouched. (A deferred call may include a file but not add a
# subdirectory.)
if(CMAKE_CURRENT_SOURCE_DIR STREQUAL CMAKE_SOURCE_DIR)
  get_property(perfbench_added GLOBAL PROPERTY PERFBENCH_ADDED)
  if(NOT perfbench_added)
    set_property(GLOBAL PROPERTY PERFBENCH_ADDED TRUE)
    # EVAL expands the path now; a bare DEFER would expand it later,
    # when CMAKE_CURRENT_LIST_DIR names another file.
    cmake_language(EVAL CODE
      "cmake_language(DEFER CALL include \"${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt\")")
  endif()
endif()
