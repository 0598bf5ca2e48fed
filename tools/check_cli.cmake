# Runs one tool command line that must be refused with the usage exit
# code 2:
#
#   cmake [-DHELP_FLAGS=--a,--b] -P check_cli.cmake -- <tool> <args>...
#
# With HELP_FLAGS, the usage text on stderr must also carry a help
# entry for every listed flag.
set(command "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_separator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()

execute_process(COMMAND ${command}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 2)
    message(FATAL_ERROR "exit ${status}, want 2: ${command}\n${err}")
endif()

string(REPLACE "," ";" help_flags "${HELP_FLAGS}")
foreach(flag IN LISTS help_flags)
    if(NOT err MATCHES "\n  ${flag}[ \n]")
        message(FATAL_ERROR "no help entry for ${flag}:\n${err}")
    endif()
endforeach()
