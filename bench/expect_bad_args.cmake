# Runs a binary with a bad command line and requires that it exits
# with status 2, prints a message matching PREFIX.*EXPECT on stderr,
# and writes no file matching WRITTEN into WORKDIR.  PREFIX defaults to
# the benches' "fatal: ", WRITTEN to their "BENCH_*.json".
#
#   cmake -DBENCH=<binary> -DARGS=<arg;arg> -DEXPECT=<regex>
#         -DWORKDIR=<dir> [-DPREFIX=<regex>] [-DWRITTEN=<glob>]
#         -P expect_bad_args.cmake
if(NOT DEFINED PREFIX)
    set(PREFIX "fatal: ")
endif()
if(NOT DEFINED WRITTEN)
    set(WRITTEN "BENCH_*.json")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(ENV{ULMT_BENCH_DIR} "${WORKDIR}")
execute_process(COMMAND "${BENCH}" ${ARGS}
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit status 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "${PREFIX}.*${EXPECT}")
    message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
file(GLOB written "${WORKDIR}/${WRITTEN}")
if(written)
    message(FATAL_ERROR "a rejected command line wrote ${written}")
endif()
