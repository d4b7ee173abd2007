# Fails when a tool's --help does not exit 0, or lists the same long flag
# twice: the parser matches flags first-come, so the second entry can never
# be reached.
#
#   cmake -DTOOL=<path to tool> -P help_flags.cmake
#
# A flag is listed by an option line (its first word starts with "--"; the
# flags before the description column count) or by the bracketed synopsis
# that follows "usage:". Flags repeated inside sub-command synopses, as in
# sbulk-trace's "gen ... [--procs N]" lines, are not listings.
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND "${TOOL}" --help
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} --help exited with ${rc}, not 0")
endif()
string(APPEND out "${err}")
if(NOT out MATCHES "usage:")
    message(FATAL_ERROR "${TOOL} --help printed no usage text")
endif()

# One list element per line: CMake lists split on ";" and do not split
# inside square brackets, so neither may survive.
string(REPLACE ";" "," out "${out}")
string(REPLACE "[" "<" out "${out}")
string(REPLACE "]" ">" out "${out}")
string(REPLACE "\n" ";" lines "${out}")
set(listed "")
set(in_synopsis FALSE)
foreach(line IN LISTS lines)
    if(line MATCHES "^usage:")
        set(in_synopsis TRUE)
        set(cols "${line}")
    elseif(in_synopsis AND line MATCHES "^ +<")
        set(cols "${line}")
    elseif(line MATCHES "^ +--")
        set(in_synopsis FALSE)
        string(STRIP "${line}" cols)
        string(REGEX REPLACE "   .*" "" cols "${cols}")
    else()
        set(in_synopsis FALSE)
        continue()
    endif()
    string(REGEX MATCHALL "--[a-z0-9-]+" flags "${cols}")
    foreach(flag IN LISTS flags)
        if(flag IN_LIST listed)
            message(FATAL_ERROR "${TOOL} --help lists ${flag} twice")
        endif()
        list(APPEND listed "${flag}")
    endforeach()
endforeach()
list(LENGTH listed n)
message(STATUS "${TOOL}: ${n} distinct flags")
