# Convenience wrapper around dune.  `make check` is what CI runs:
# build everything, run the test suites, refuse interface values no
# other file names, and (when ocamlformat is installed) verify
# formatting.

DUNE ?= dune

.PHONY: all build test fmt dead-exports check bench bench-check bench-all \
        faultsim faultsim-queues faultsim-ready-queue faultsim-kpipe \
        faultsim-disk faultsim-codeflip faultsim-synthcache \
        faultsim-smp faultsim-serve faultsim-crash clean

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

# Every `val` in lib/*/*.mli must be named by some other source file,
# and every top-level `let` in bench/*.ml and bin/*.ml somewhere past
# its definition: one that is not is dead, or belongs out of its
# interface.
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
	$(DUNE) exec bench/main.exe -- compare --tolerance 0

# The full suite (queues, ablations, sizes, bechamel, ...).
bench-all:
	$(DUNE) exec bench/main.exe -- all

# kfault: deterministic seed-swept fault-injection sweeps — forced
# preemption + injected faults over each explorer subject, plus the
# timer-loss and disk-fault recovery scenarios.  Fails on any
# invariant violation, unrecovered fault, nondeterministic trace, or
# sabotage run the invariants miss.  FAULTSIM_SEEDS widens/narrows
# every sweep; CI runs the per-subject targets as parallel jobs.
FAULTSIM_SEEDS ?= 32
# Extra flags for the sweep, e.g. FAULTSIM_FLAGS="--postmortem-dir forensics"
# to save each failing run's flight-recorder dump + black-box trace.
FAULTSIM_FLAGS ?=
FAULTSIM = $(DUNE) exec bin/synthesis_cli.exe -- faultsim --seed 1 --seeds $(FAULTSIM_SEEDS) $(FAULTSIM_FLAGS)

faultsim:
	$(FAULTSIM) --subject all

faultsim-queues:
	$(FAULTSIM) --subject queues

faultsim-ready-queue:
	$(FAULTSIM) --subject ready-queue

faultsim-kpipe:
	$(FAULTSIM) --subject kpipe

faultsim-disk:
	$(FAULTSIM) --subject disk

# kheal: code-region flips repaired by resynthesis; every seeded flip
# must be detected and the post-repair code state must match the
# fault-free fingerprint.
faultsim-codeflip:
	$(FAULTSIM) --subject codeflip

# ksynth: flips aimed at one shared cached page while decoy churn
# drives eviction next to it; the page must repair in place exactly
# once for all users and keep serving post-storm instantiations.
faultsim-synthcache:
	$(FAULTSIM) --subject synthcache

# kSMP: the multi-core work-stealing storm — a queue workload pinned
# across 2-4 cores (picked per seed) with per-core stealers, under
# core-clock skews, forced steals/migrations, cross-core preemptions,
# and core-targeted spurious interrupts.  The sabotage leg skips the
# steal dispatch guard and must be caught.
faultsim-smp:
	$(FAULTSIM) --subject smp

# kserve: the network serving stack under spurious NIC interrupts,
# stalled/dropped card service ticks, and core-clock skews; the
# agitation hook plays the driver watchdog and re-kicks a parked
# card.  The sabotage leg duplicates one tx frame and the load
# generator's exactly-once ledger must catch the second copy.
faultsim-serve:
	$(FAULTSIM) --subject serve

# kcrash: enumerate every legal power-cut state of the journaled FS
# workloads (journal prefixes + torn-write variants + a live
# device-level cut), reboot each through at-boot recovery, and check
# the crash-consistency litmus predicates.  Also proves the
# mechanisms are load-bearing: with barriers or the intent log
# disabled the litmus tests must fail.
faultsim-crash:
	$(FAULTSIM) --subject crash

clean:
	$(DUNE) clean
