# Tier-1 verification plus the doc/formatting gates.  `make check` is
# what a PR must keep green.

.PHONY: all build test doc fmt-check crash-test serve-test scenario-test chaos-test metrics bench-quick bench-diff perf-smoke docs-check check clean

all: build

build:
	dune build

# The suite runs twice: once sequentially and once with a worker pool
# sized to the machine (SIT_JOBS is read by Par.default_jobs — see
# lib/par/par.mli).  The differential tests assert both schedules
# produce identical results, so a pass here covers the determinism
# contract, not just "the code runs".
NPROC ?= $(shell nproc 2>/dev/null || echo 2)
test:
	SIT_JOBS=1 dune runtest --force
	SIT_JOBS=$(NPROC) dune runtest --force

doc:
	dune build @doc

# Formatting is scoped to dune files in dune-project (ocamlformat is
# not vendored), so the preview is deterministic everywhere.
fmt-check:
	@out=$$(dune fmt --preview 2>&1); \
	if [ -n "$$out" ]; then \
	  echo "$$out"; \
	  echo "fmt-check: 'dune fmt --preview' is not clean (run 'dune fmt')"; \
	  exit 1; \
	fi
	@echo "fmt-check: clean"

# The journal fault-injection harness (docs/ROBUSTNESS.md): truncation
# at every record boundary, torn writes at arbitrary byte budgets and
# single-bit flips, under both schedules.  Also part of `make check`.
crash-test: build
	SIT_JOBS=1 dune exec test/test_journal.exe
	SIT_JOBS=$(NPROC) dune exec test/test_journal.exe

# End-to-end daemon check (docs/SERVING.md): start sit_serve on the
# paper session over a unix socket, replay 1000 requests over 4
# connections with byte-identity checking, probe the error paths, and
# verify SIGTERM drains.  Also part of `make check`.
serve-test: build
	sh scripts/serve_test.sh

# Federation-scale differential harness (docs/SCENARIOS.md): three
# pinned seeds — 11 (8 schemas, 241 ops), 23 (5 schemas, 196 ops) and
# 42 (6 schemas, single round) — each replayed through five legs
# (offline SIT_JOBS=1 and SIT_JOBS=nproc, a daemon over the JSON and
# binary protocols, and a checkpoint-resumed daemon), all required to
# produce byte-identical transcripts with full ground-truth recovery.
# Budget: about 4 seconds per seed.  Also part of `make check`.
scenario-test: build
	sh scripts/scenario_test.sh

# Replication chaos harness (docs/ROBUSTNESS.md): a pinned-seed
# scenario through a leader + 2-follower cluster — semi-sync acks,
# follower catch-up, a SIGKILLed leader with client failover, and a
# late-started follower — every leg byte-compared against a
# single-node reference.  Budget: about 4 seconds.  Also part of
# `make check`.
chaos-test: build
	sh scripts/chaos_test.sh

# Regenerate the observability baseline (see docs/ARCHITECTURE.md).
metrics:
	dune exec bench/main.exe -- metrics

# The experiments a data-plane or serving change most wants while
# iterating: E21 (serving throughput), E23 (wire protocols + flat
# kernels) and E24 (scenario engine).  Much faster than the full
# `dune exec bench/main.exe`.
bench-quick:
	dune exec bench/main.exe -- e21 e23 e24

# Compare two metrics reports and fail on span regressions beyond the
# threshold — the PR-over-PR perf gate (see docs/PERFORMANCE.md).
# Usage: make bench-diff [OLD=BENCH_pr9.json] [NEW=BENCH_pr10.json]
#        [THRESHOLD=0.25] [MIN_SECONDS=0.0005]
OLD ?= BENCH_pr9.json
NEW ?= BENCH_pr10.json
THRESHOLD ?= 0.25
MIN_SECONDS ?= 0.0005
bench-diff:
	dune exec bench/diff.exe -- $(OLD) $(NEW) \
	  --threshold $(THRESHOLD) --min-seconds $(MIN_SECONDS)

# Smoke run of the repository benchmark (perfbench/README.md): every
# workload listed in BENCHMARK.json for 2 s, untraced.  Fails when a run
# fails or reports a wrong answer ("correct":false: perfbench then exits
# non-zero).  A smoke run checks answers, not speed: 2 s figures are far
# too noisy to compare.
PERF_WORKLOADS = $(shell python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
perf-smoke:
	@for w in $(PERF_WORKLOADS); do \
	  echo "perf-smoke: $$w"; \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0) \
	    || { echo "$$out"; echo "perf-smoke: $$w failed"; exit 1; }; \
	  echo "$$out" | grep -E '^(setup_s|ops_per_s|lat_p50_ms|error_frac) '; \
	done
	@echo "perf-smoke: every listed workload answered correctly"

# Docs drift gate (see scripts/docs_check.sh): every docs/*.md guide
# must be linked from README.md, and the op table in docs/SERVING.md
# must match the wire protocol's op registry (Wire.ops).
docs-check:
	sh scripts/docs_check.sh

check: build test crash-test serve-test scenario-test chaos-test doc fmt-check docs-check
	@echo "check: build, tests, crash-test, serve-test, scenario-test, chaos-test, docs and formatting all green"

clean:
	dune clean
