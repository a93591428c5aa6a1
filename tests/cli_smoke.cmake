# CLI smoke test: assemble -> run -> trace -> faultsim -> compact -> campaign
# round trip through the gpustlc binary. Invoked by ctest with -DGPUSTLC=<path>.
set(WORK ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_work)
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

file(WRITE ${WORK}/tiny.asm "
.entry tiny
.blocks 1
.threads 32
    S2R R1, SR_TID
    MOV32I R0, 4
    IMUL R3, R1, R0
    IADD32I R2, R3, 0x10000
    MOV32I R4, 0x1234
    IADD R5, R4, R1
    STG [R2+0x0], R5
    MOV32I R4, 0x1234
    IADD R5, R4, R1
    STG [R2+0x0], R5
    EXIT
")

function(run_cli)
  execute_process(COMMAND ${GPUSTLC} ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpustlc ${ARGN} failed (${rc}):\n${out}\n${err}")
  endif()
  message(STATUS "gpustlc ${ARGN}: OK")
endfunction()

run_cli(assemble tiny.asm -o tiny.gptp)
run_cli(disasm tiny.gptp)
run_cli(lint tiny.asm)
run_cli(run tiny.gptp --dump 0x10000 2)
run_cli(trace tiny.gptp --module DU -o tiny --vcd)
run_cli(faultsim tiny.gptp --module DU)
run_cli(faultsim tiny.gptp --module DU --threads 2)
run_cli(faultsim tiny.gptp --module DU --fault-model transition --threads 2)
run_cli(compact tiny.gptp --module DU -o tiny.cptp.asm --report tiny)
run_cli(disasm tiny.cptp.asm)

# Backend selection: every backend produces a bit-identical report, so the
# scalar and auto summaries must match once the (intentionally different)
# "backend: <name>" observability line is stripped.
execute_process(COMMAND ${GPUSTLC} faultsim tiny.gptp --module DU --backend scalar
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out_scalar ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpustlc faultsim --backend scalar failed (${rc}):\n${out_scalar}\n${err}")
endif()
if(NOT out_scalar MATCHES "backend: scalar")
  message(FATAL_ERROR "--backend scalar summary does not report the backend:\n${out_scalar}")
endif()
execute_process(COMMAND ${GPUSTLC} faultsim tiny.gptp --module DU --backend auto
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out_auto ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpustlc faultsim --backend auto failed (${rc}):\n${out_auto}\n${err}")
endif()
string(REGEX REPLACE " *backend: [a-z0-9]+\n" "" stripped_scalar "${out_scalar}")
string(REGEX REPLACE " *backend: [a-z0-9]+\n" "" stripped_auto "${out_auto}")
if(NOT stripped_scalar STREQUAL stripped_auto)
  message(FATAL_ERROR "--backend auto changed the faultsim report:\n${out_scalar}\nvs\n${out_auto}")
endif()
message(STATUS "gpustlc faultsim --backend scalar/auto: OK (report identical)")

# GPUSTL_BACKEND is the env spelling of the same switch (flag-less wrappers).
execute_process(COMMAND ${CMAKE_COMMAND} -E env GPUSTL_BACKEND=scalar
                        ${GPUSTLC} faultsim tiny.gptp --module DU
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out_benv ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpustlc faultsim (GPUSTL_BACKEND=scalar) failed (${rc}):\n${out_benv}\n${err}")
endif()
if(NOT out_scalar STREQUAL out_benv)
  message(FATAL_ERROR "GPUSTL_BACKEND=scalar differs from --backend scalar:\n${out_scalar}\nvs\n${out_benv}")
endif()
message(STATUS "gpustlc faultsim GPUSTL_BACKEND=scalar: OK (summary identical)")

# An unknown backend is an input error: fail loudly, never fall back.
execute_process(COMMAND ${GPUSTLC} faultsim tiny.gptp --module DU --backend quantum
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "gpustlc accepted --backend quantum:\n${out}")
endif()
if(NOT err MATCHES "--backend must be auto, scalar, wide, avx2 or avx512")
  message(FATAL_ERROR "--backend quantum died without the expected message:\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E env GPUSTL_BACKEND=quantum
                        ${GPUSTLC} faultsim tiny.gptp --module DU
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "gpustlc accepted GPUSTL_BACKEND=quantum:\n${out}")
endif()
if(NOT err MATCHES "GPUSTL_BACKEND: unknown backend")
  message(FATAL_ERROR "GPUSTL_BACKEND=quantum died without the expected message:\n${err}")
endif()
message(STATUS "gpustlc faultsim unknown backend: OK (input error)")

file(WRITE ${WORK}/fpu.asm "
.entry fpu_tiny
.blocks 1
.threads 32
    S2R R1, SR_TID
    MOV32I R0, 4
    IMUL R3, R1, R0
    IADD32I R2, R3, 0x10000
    MOV32I R4, 0x40400000
    I2F R5, R1
    FADD R6, R4, R5
    STG [R2+0x0], R6
    EXIT
")

file(WRITE ${WORK}/manifest.txt "
# file module mode
tiny.asm DU compact
tiny.gptp DU carry
fpu.asm FP32 compact
")
run_cli(campaign manifest.txt --state stl --threads 2)
run_cli(campaign manifest.txt --state stl --threads 2)  # resumed second run

# Like run_cli, but additionally requires `pattern` in the combined output.
function(run_cli_match pattern)
  execute_process(COMMAND ${GPUSTLC} ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpustlc ${ARGN} failed (${rc}):\n${out}\n${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "gpustlc ${ARGN}: output lacks '${pattern}':\n${out}\n${err}")
  endif()
  message(STATUS "gpustlc ${ARGN}: OK (matched '${pattern}')")
endfunction()

# Result store: a cold faultsim populates the cache, the warm re-run is
# served entirely from it.
run_cli_match("cache: 0 hits / 1 misses" faultsim tiny.gptp --module DU --cache-dir cache)
run_cli_match("cache: 1 hits / 0 misses" faultsim tiny.gptp --module DU --cache-dir cache)

# --no-cache wins over --cache-dir: no cache stats are printed.
execute_process(COMMAND ${GPUSTLC} faultsim tiny.gptp --module DU --cache-dir cache --no-cache
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpustlc faultsim --no-cache failed (${rc}):\n${out}\n${err}")
endif()
if("${out}${err}" MATCHES "cache:")
  message(FATAL_ERROR "--no-cache still reported cache stats:\n${out}")
endif()
message(STATUS "gpustlc faultsim --no-cache: OK (caching disabled)")

# Campaign checkpointing: the cold run writes ckpt/, the no-op --resume run
# restores every entry, recomputes nothing, and reproduces the report
# byte for byte.
run_cli(campaign manifest.txt --cache-dir cache --resume ckpt --report r1.txt --threads 2)
run_cli_match("resumed 3/3 entries" campaign manifest.txt --cache-dir cache --resume ckpt --report r2.txt --threads 2)
file(READ ${WORK}/r1.txt report_cold)
file(READ ${WORK}/r2.txt report_resumed)
if(NOT report_cold STREQUAL report_resumed)
  message(FATAL_ERROR "resumed campaign report differs from the cold run")
endif()
if(NOT EXISTS ${WORK}/ckpt/campaign.ckpt)
  message(FATAL_ERROR "missing checkpoint file ckpt/campaign.ckpt")
endif()

foreach(artifact tiny.gptp tiny.trace.txt tiny.vcde tiny.vcd tiny.cptp.asm tiny.labels.txt tiny.report.txt)
  if(NOT EXISTS ${WORK}/${artifact})
    message(FATAL_ERROR "missing artifact ${artifact}")
  endif()
endforeach()
