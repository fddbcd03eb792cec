#===- tests/GuardObjectsCallNoLibm.cmake - libm-free verdict objects -----===#
#
# Part of the PROM reproduction. Distributed under the MIT license.
#
# Fails when an object file of the guard's store and kernels references a
# libm exp* or log* symbol. Their verdict bits must not depend on how the
# host's libm rounds: the Eq. (1) weight and the vote's confidence come from
# support::kernels::expNeg, which KernelTest checks against libm.
#
# Checked: CalibrationStore.cpp.o, Kernels.cpp.o, KernelsAvx2.cpp.o.
# Not checked, and why:
#  * Detector.cpp.o keeps `log` for the temperature softening
#    (softmax(log(p) / T)) and the temperature fit. The seeded benchmark's
#    stage replica rebuilds that softening with std::log, and its bit-for-bit
#    replica check fails on any other log; the softening moves off libm
#    together with that replica.
#  * The ml/ host models, the task generators and the statistics helpers
#    are the model being guarded or test-data generators, not the guard.
#
# Usage: cmake -DNM=<nm> -DARCHIVE=<libprom.a> -P GuardObjectsCallNoLibm.cmake
#
#===----------------------------------------------------------------------===#

cmake_minimum_required(VERSION 3.16)

set(GUARD_OBJECTS CalibrationStore.cpp.o Kernels.cpp.o KernelsAvx2.cpp.o)

execute_process(COMMAND "${NM}" --undefined-only "${ARCHIVE}"
                OUTPUT_VARIABLE Listing
                ERROR_VARIABLE Errors
                RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${NM} --undefined-only ${ARCHIVE} failed: ${Errors}")
endif()

# nm prints "<member>:" before each member's symbols, one "U <name>" line
# per undefined symbol.
string(REPLACE "\n" ";" Lines "${Listing}")
set(Member "")
set(Seen "")
set(Offenders "")
foreach(Line IN LISTS Lines)
  if(Line MATCHES "^([^ ]+\\.o):$")
    set(Member "${CMAKE_MATCH_1}")
    if(Member IN_LIST GUARD_OBJECTS)
      list(APPEND Seen "${Member}")
    endif()
  elseif(Member IN_LIST GUARD_OBJECTS AND
         Line MATCHES "^ *U +_*((exp|log)[A-Za-z0-9_]*)")
    list(APPEND Offenders "${Member}: ${CMAKE_MATCH_1}")
  endif()
endforeach()

foreach(Object IN LISTS GUARD_OBJECTS)
  if(NOT Object IN_LIST Seen)
    message(FATAL_ERROR "${Object} is not a member of ${ARCHIVE}")
  endif()
endforeach()
if(Offenders)
  list(JOIN Offenders "\n  " Report)
  message(FATAL_ERROR "guard objects reference libm:\n  ${Report}")
endif()
list(JOIN GUARD_OBJECTS ", " Checked)
message(STATUS "no exp* or log* symbol in ${Checked}")
