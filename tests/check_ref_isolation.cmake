# tests/check_ref_isolation.cmake — oracle isolation guard (run via `cmake -P`).
#
# The serial oracles in src/nwhy/ref/ are test-only: production code gets
# one implementation per semantics, so no file under src/ outside
# src/nwhy/ref/ may include nwhy/ref/.  The one exemption is the umbrella
# src/nwhy.hpp, which re-exports the oracles for the tests and for the
# benchmark's answer checks.  Registered as the `ref_oracles_isolated`
# ctest entry; fails naming every offending include.
#
# Usage (see tests/CMakeLists.txt):
#   cmake -DSRC=<repo>/src -P check_ref_isolation.cmake

if(NOT DEFINED SRC)
  message(FATAL_ERROR "check_ref_isolation.cmake: pass -DSRC=<source directory>")
endif()

file(GLOB_RECURSE files RELATIVE "${SRC}" "${SRC}/*.hpp" "${SRC}/*.h" "${SRC}/*.cpp")
set(offenders "")
set(checked 0)
foreach(f IN LISTS files)
  if(f MATCHES "^nwhy/ref/" OR f STREQUAL "nwhy.hpp")
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  file(STRINGS "${SRC}/${f}" hits REGEX "^[ \t]*#[ \t]*include[ \t]*[<\"]nwhy/ref/")
  foreach(line IN LISTS hits)
    string(STRIP "${line}" line)
    list(APPEND offenders "src/${f}: ${line}")
  endforeach()
endforeach()

if(offenders)
  string(REPLACE ";" "\n  " pretty "${offenders}")
  message(FATAL_ERROR "production code includes the test-only serial oracles:\n  ${pretty}")
endif()

message(STATUS "${checked} files under src/ are free of nwhy/ref/ includes")
