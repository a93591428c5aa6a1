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

# The engine picks its own width; the retired --backend flag is an unknown
# flag like any other.
execute_process(COMMAND ${GPUSTLC} faultsim tiny.gptp --module DU --backend scalar
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "gpustlc accepted the retired --backend flag:\n${out}")
endif()
if(NOT err MATCHES "unknown flag")
  message(FATAL_ERROR "--backend died without \"unknown flag\":\n${err}")
endif()
message(STATUS "gpustlc faultsim --backend: OK (unknown flag)")

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

# Manifest paths resolve against the manifest's directory, not the working
# directory: a campaign over sub/manifest.txt run from its parent gives the
# report the same manifest gives run from its own directory.
file(MAKE_DIRECTORY ${WORK}/sub)
foreach(f manifest.txt tiny.asm tiny.gptp fpu.asm)
  file(COPY ${WORK}/${f} DESTINATION ${WORK}/sub)
endforeach()
run_cli(campaign manifest.txt --report in_dir.txt)
run_cli(campaign sub/manifest.txt --report from_parent.txt)
file(READ ${WORK}/in_dir.txt report_in_dir)
file(READ ${WORK}/from_parent.txt report_from_parent)
if(NOT report_in_dir STREQUAL report_from_parent)
  message(FATAL_ERROR "campaign sub/manifest.txt from the parent dir gave a "
                      "different report than the in-dir run")
endif()
