# CLI usage-error contract, run as a ctest script:
#
#   cmake -DPICASSO_CLI=<path/to/picasso_cli> -P cli_usage_test.cmake
#
# Every operator mistake must exit 2 and print a diagnostic that ENUMERATES
# the accepted values (the lists are built from the same enumerations the
# parsers walk, so they cannot drift) followed by the usage line.

if(NOT PICASSO_CLI)
  message(FATAL_ERROR "pass -DPICASSO_CLI=<path to picasso_cli>")
endif()

function(expect_usage_error case_name)
  cmake_parse_arguments(CASE "" "" "ARGS;STDERR_HAS" ${ARGN})
  execute_process(COMMAND ${PICASSO_CLI} ${CASE_ARGS}
                  RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE std_out
                  ERROR_VARIABLE std_err)
  if(NOT exit_code EQUAL 2)
    message(FATAL_ERROR
            "${case_name}: expected exit 2, got '${exit_code}'\n"
            "stderr: ${std_err}")
  endif()
  foreach(needle ${CASE_STDERR_HAS})
    string(FIND "${std_err}" "${needle}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR
              "${case_name}: stderr missing '${needle}'\nstderr: ${std_err}")
    endif()
  endforeach()
  message(STATUS "${case_name}: OK")
endfunction()

expect_usage_error(bad_strategy
  ARGS color H4_1D_sto3g --strategy bogus
  STDERR_HAS "unknown execution strategy 'bogus'"
             "valid:" "auto" "in-memory" "semi-streaming" "fused"
             "usage:")

# The chunk-pair streaming strategy was removed in API 2.0; its spelling is
# an unknown name now.
expect_usage_error(retired_strategy
  ARGS color H4_1D_sto3g --strategy streaming
  STDERR_HAS "unknown execution strategy 'streaming'" "valid:" "usage:")

# So was the probabilistic prefilter tier in API 3.0.
expect_usage_error(retired_sketch_strategy
  ARGS color H4_1D_sto3g --strategy sketch
  STDERR_HAS "unknown execution strategy 'sketch'" "valid:" "usage:")

# So was multi-device sharding in API 5.0.
expect_usage_error(retired_multi_device_strategy
  ARGS color H4_1D_sto3g --strategy multi-device
  STDERR_HAS "unknown execution strategy 'multi-device'" "valid:" "usage:")

# The Pauli backend selector was removed in API 4.0; its flag is an unknown
# argument now.
expect_usage_error(retired_backend
  ARGS color H4_1D_sto3g --backend packed
  STDERR_HAS "unknown argument '--backend'" "usage:")

expect_usage_error(bad_mode
  ARGS partition H4_1D_sto3g --mode bogus
  STDERR_HAS "unknown mode 'bogus'" "unitary" "commute" "qwc" "usage:")

expect_usage_error(bad_command
  ARGS frobnicate
  STDERR_HAS "unknown command 'frobnicate'" "usage:")

expect_usage_error(missing_flag_value
  ARGS color H4_1D_sto3g --strategy
  STDERR_HAS "missing value for --strategy" "usage:")
