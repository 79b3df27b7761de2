# Every `|`-alternative of each `ctest -R` filter in the CI workflow must
# match at least one registered test.  A suite that is renamed or moved
# would otherwise drop out of its sanitizer pass unnoticed: ctest's
# --no-tests=error only fails a filter that matches nothing at all.
# ctest -R and if(MATCHES) share CMake's regex engine, so a match here
# is a match there.
#
#   cmake -DCI_YML=<ci.yml> -DCTEST=<ctest> -P check_ci_filters.cmake
#
# Run it in a configured build tree, whose tests `ctest -N` lists.

file(READ "${CI_YML}" yml)
string(REGEX MATCHALL "ctest --preset [a-z]+ -R '[^']*'" filters "${yml}")
if(NOT filters)
    message(FATAL_ERROR "no `ctest -R` filter found in ${CI_YML}")
endif()

execute_process(COMMAND "${CTEST}" -N
                OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ctest -N failed (${rc})")
endif()
string(REGEX MATCHALL "Test +#[0-9]+: [^\n]+" lines "${listing}")
set(names "")
foreach(line IN LISTS lines)
    string(REGEX REPLACE "^Test +#[0-9]+: " "" name "${line}")
    list(APPEND names "${name}")
endforeach()
list(LENGTH names count)
if(count EQUAL 0)
    message(FATAL_ERROR "ctest -N lists no tests")
endif()

set(unmatched "")
foreach(filter IN LISTS filters)
    string(REGEX REPLACE "^ctest --preset ([a-z]+) -R '(.*)'$" "\\1" preset
           "${filter}")
    string(REGEX REPLACE "^ctest --preset ([a-z]+) -R '(.*)'$" "\\2" pattern
           "${filter}")
    string(REPLACE "|" ";" alternatives "${pattern}")
    foreach(alternative IN LISTS alternatives)
        set(found FALSE)
        foreach(name IN LISTS names)
            if(name MATCHES "${alternative}")
                set(found TRUE)
                break()
            endif()
        endforeach()
        if(NOT found)
            list(APPEND unmatched "${preset}: '${alternative}'")
        endif()
    endforeach()
endforeach()

if(unmatched)
    list(JOIN unmatched "\n  " report)
    message(FATAL_ERROR
            "CI filter alternatives that match no registered test "
            "(of ${count}):\n  ${report}")
endif()
list(LENGTH filters nfilters)
message(STATUS "every alternative of ${nfilters} CI filters matches "
               "one of ${count} tests")
