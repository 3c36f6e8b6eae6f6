# Convenience wrapper around dune.  `make check` is what CI runs:
# build everything, run the test suites, refuse interface values that
# no other file names or that only tests name without being declared
# seams, and (when ocamlformat is installed) verify formatting.

DUNE ?= dune

.PHONY: all build test fmt dead-exports check bench bench-check bench-all \
        faultsim qcheck-sweep clean

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# @fmt needs ocamlformat, which not every environment has; skip with a
# notice instead of failing the whole check.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

# Every `val` in lib/*/*.mli must be named by some source file outside
# its module and test/, or be a test seam declared with its reason in
# scripts/test_seams (and then named by a test); every top-level `let`
# in bench/*.ml and bin/*.ml must be named somewhere past its
# definition.  A value that is not is dead, test-only, or belongs out
# of its interface.
dead-exports:
	sh scripts/dead_exports.sh

check: build test dead-exports fmt

# Run the paper-table benches and emit machine-readable BENCH_tables.json.
bench:
	$(DUNE) exec bench/main.exe -- tables

# Regression gate: re-run the tables and fail on any row that differs
# from the committed bench/baseline.json, in either direction.  Every
# row is deterministic, so a change that moves one re-records it.
bench-check:
	$(DUNE) exec bench/main.exe -- compare

# The full suite (queues, ablations, sizes, bechamel, ...).
bench-all:
	$(DUNE) exec bench/main.exe -- all

# kfault: deterministic seed-swept fault-injection sweeps — forced
# preemption + injected faults over each explorer subject, plus the
# timer-loss and disk-fault recovery scenarios.  Fails on any
# invariant violation, unrecovered fault, nondeterministic trace, or
# sabotage run the invariants miss.  FAULTSIM_SEEDS widens/narrows
# every sweep.  `faultsim` sweeps every subject; `faultsim-NAME` sweeps
# one subject group (queues, ready-queue, kpipe, disk, codeflip,
# synthcache, smp, serve, crash), as CI's parallel jobs do.  Each
# subject is described where lib/harness/explorer.ml defines it.
FAULTSIM_SEEDS ?= 32
# Extra flags for the sweep, e.g. FAULTSIM_FLAGS="--postmortem-dir forensics"
# to save each failing run's flight-recorder dump + black-box trace.
FAULTSIM_FLAGS ?=
FAULTSIM = $(DUNE) exec bin/synthesis_cli.exe -- faultsim --seed 1 --seeds $(FAULTSIM_SEEDS) $(FAULTSIM_FLAGS)

faultsim:
	$(FAULTSIM) --subject all

faultsim-%:
	$(FAULTSIM) --subject $*

# The QCheck properties under seeds 2-9, besides tier-1's fixed one
# (test/dune sets QCHECK_SEED=1): every test executable whose source
# converts a property, one at a time.  It stops at the first
# counterexample, which prints with its seed and executable; replay it
# with `QCHECK_SEED=<seed> ./_build/default/test/<executable>`.
QCHECK_SUITES = $(patsubst test/%.ml,%,$(shell grep -l QCheck_alcotest test/*.ml))

qcheck-sweep: build
	@for s in 2 3 4 5 6 7 8 9; do \
	  for t in $(QCHECK_SUITES); do \
	    echo "qcheck seed $$s: $$t.exe"; \
	    QCHECK_SEED=$$s ./_build/default/test/$$t.exe --compact || exit 1; \
	  done; \
	done

clean:
	$(DUNE) clean
