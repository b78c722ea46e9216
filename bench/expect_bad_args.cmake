# Runs a bench binary with a bad command line and requires that it
# exits with status 2, prints a "fatal:" message matching EXPECT, and
# writes no BENCH file.
#
#   cmake -DBENCH=<binary> -DARGS=<arg;arg> -DEXPECT=<regex>
#         -DWORKDIR=<dir> -P expect_bad_args.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(ENV{ULMT_BENCH_DIR} "${WORKDIR}")
execute_process(COMMAND "${BENCH}" ${ARGS}
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit status 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "fatal: .*${EXPECT}")
    message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
file(GLOB written "${WORKDIR}/BENCH_*.json")
if(written)
    message(FATAL_ERROR "a rejected command line wrote ${written}")
endif()
