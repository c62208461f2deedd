# Gate: the model does not depend on the host thread count.
#
# Runs one alphapim configuration twice, serially (ALPHA_PIM_THREADS=1)
# and with the default worker count, and requires the two --json-out
# records to be equal in every field but the noisy host clock
# (`wall_seconds` and the `host` block). The host block's replay work
# counters -- windows, dispatches and memo hits -- are exact, so they
# must be equal too.
#
# Arguments (all -D):
#   CLI      path to the alphapim binary
#   ARGS     semicolon-separated alphapim arguments
#   WORKDIR  scratch directory for the records

file(MAKE_DIRECTORY ${WORKDIR})
set(_counters replay_windows replay_dispatches replay_memo_hits)

foreach(_threads serial default)
    set(_record ${WORKDIR}/${_threads}.jsonl)
    file(REMOVE ${_record})
    if(_threads STREQUAL "serial")
        set(_env ALPHA_PIM_THREADS=1)
    else()
        set(_env --unset=ALPHA_PIM_THREADS)
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env ${_env}
                ${CLI} ${ARGS} --json-out ${_record}
        RESULT_VARIABLE _code
        OUTPUT_QUIET
        ERROR_VARIABLE _err
    )
    if(NOT _code EQUAL 0)
        message(FATAL_ERROR
            "alphapim ${ARGS} (${_threads} threads) failed "
            "(${_code}): ${_err}")
    endif()
    file(READ ${_record} _line)
    string(STRIP "${_line}" _line)
    foreach(_counter ${_counters})
        string(JSON _value GET "${_line}" host ${_counter})
        set(_${_threads}_${_counter} ${_value})
    endforeach()
    string(JSON _line REMOVE "${_line}" host)
    string(JSON _line REMOVE "${_line}" wall_seconds)
    set(_${_threads}_model "${_line}")
endforeach()

if(NOT _serial_model STREQUAL _default_model)
    message(FATAL_ERROR
        "model fields depend on the thread count:\n"
        "serial:  ${_serial_model}\n"
        "default: ${_default_model}")
endif()
foreach(_counter ${_counters})
    if(NOT _serial_${_counter} STREQUAL _default_${_counter})
        message(FATAL_ERROR
            "host.${_counter} depends on the thread count: "
            "${_serial_${_counter}} serial vs "
            "${_default_${_counter}} default")
    endif()
endforeach()
message(STATUS
    "thread-invariant; replay memo hits ${_serial_replay_memo_hits}")
