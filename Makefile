# Convenience targets for the ppviol repository.

PYTHON ?= python

.PHONY: install test chaos delta-parity obs perfbench-check bench bench-smoke bench-tables examples lint lint-policy lint-populations all

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# The chaos suite CI runs in the chaos-smoke job: fault injection,
# crash recovery, storage hardening, the CLI error contract, and the
# document error contract (which fault a malformed document reports,
# with which message), under a tight per-test timeout.  Deterministic —
# fault plans are seeded.
chaos:
	REPRO_TEST_TIMEOUT=60 PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/resilience \
		tests/storage/test_hardening.py \
		tests/cli/test_cli_errors.py \
		tests/policy_lang/test_error_contract.py

# The population-churn suite CI runs in the delta-parity job: the one
# batch engine's removals (BatchViolationEngine tombstoning rows of an
# in-place CompiledPopulation; past half, compaction cuts the survivors'
# store out by mask and no longer recompiles) in randomized removal
# sequences bit-for-bit against fresh compiles, the compiled store's own
# compaction-equals-fresh-compile tests, the exactly-one-compile churn
# regression, the shared column diff and chained-delta exactness, a
# journaled dynamics run killed after every round and resumed (the replay
# removes each recorded round's departures from the engine without
# evaluating), and a smoke-size run of the delta dynamics bench.
delta-parity:
	REPRO_TEST_TIMEOUT=120 PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/properties/test_mutation_parity.py \
		tests/perf/test_compiled.py \
		tests/perf/test_delta_engine.py \
		tests/perf/test_delta_dynamics.py \
		tests/perf/test_delta_columns.py \
		tests/resilience/test_crash_recovery.py::TestDynamicsRecovery
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_delta_dynamics.py --benchmark-only

# The observability steps CI runs in the obs-smoke job: the metrics
# registry, span tracing, the zero-cost-when-disabled guard, and the
# CLI's --metrics / --trace / obs surface end to end (including fault
# counters under an injected chaos plan); an instrumented sweep whose
# snapshot `repro obs` renders as text and as prometheus; and a
# certify whose snapshot must show one batch compile and no
# reference-engine evaluation.
OBS_DOCUMENTS = --taxonomy examples/documents/taxonomy.json \
	--policy examples/documents/policy.json \
	--population examples/documents/population.json

obs:
	REPRO_TEST_TIMEOUT=60 PYTHONPATH=src $(PYTHON) -m pytest -q tests/obs
	@mkdir -p build
	PYTHONPATH=src $(PYTHON) -m repro.cli sweep $(OBS_DOCUMENTS) \
		--steps 3 --json --metrics build/obs-snapshot.json --trace
	PYTHONPATH=src $(PYTHON) -m repro.cli obs build/obs-snapshot.json
	PYTHONPATH=src $(PYTHON) -m repro.cli obs build/obs-snapshot.json --format prometheus
	PYTHONPATH=src $(PYTHON) -m repro.cli certify $(OBS_DOCUMENTS) \
		--alpha 0.7 --json --metrics build/certify-snapshot.json
	$(PYTHON) -c "import json, sys; c = json.load(open('build/certify-snapshot.json'))['counters']; n = sum(e['value'] for e in c if e['name'] == 'perf.compilations'); r = any(e['name'] == 'engine.reference.evaluations' for e in c); print('certify perf.compilations=%s reference evaluations=%s' % (n, r)); sys.exit(not (n == 1 and not r))"

# The repository benchmark's own tests, its inputs check (generation
# and widening must still give the seeded inputs perfbench/workloads.py
# pins), and its output checks: every workload at 100 ops, untraced and
# traced, must report correct=true and failed=0 on the JSON line it
# prints last.  What CI's perfbench job runs.
perfbench-check:
	PYTHONPATH=src $(PYTHON) -m pytest perfbench -q
	PYTHONPATH=src $(PYTHON) -c "import sys; sys.path.insert(0, 'perfbench'); import workloads; p = workloads.check_inputs(); print(p or 'inputs digest ok'); sys.exit(bool(p))"
	$(PYTHON) perfbench/run.py --seconds 1 --trace 1 | tail -n 1 | $(PYTHON) -c "import json, sys; r = json.loads(sys.stdin.read()); print('perfbench correct=%s failed=%s' % (r['correct'], r['failed'])); sys.exit(not (r['correct'] is True and r['failed'] == 0))"

# Full benchmark run; machine-readable timings (including the sweep
# speedup of the batch engine vs the reference engine, of column-delta
# rounds vs full re-evaluation, and of the incremental delta engine vs
# a full rebuild per churn round) land in BENCH_9.json via the conftest
# recorder.  The historical BENCH_2.json record names are
# preserved inside it, so the timing trajectory across PRs stays
# comparable.
bench:
	REPRO_BENCH_JSON=BENCH_9.json PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Tiny-size smoke run of the scaling benches (same code paths, relaxed
# speedup floor) — what CI executes on every push.
bench-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_scaling.py --benchmark-only

bench-tables:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src $(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

# Static analysis of the source tree.  ruff and mypy are optional
# (CI installs them; minimal dev environments may not have them), so
# each step is skipped with a notice when the tool is unavailable.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src/repro tests; \
	else \
		echo "ruff not installed; skipping ruff check"; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "mypy not installed; skipping mypy"; \
	fi

# Static analysis of the shipped policy documents via `repro lint`.
# The Section 8 example legitimately violates Ted and Bob, so the alpha
# gate is set above the paper's P(W) = 2/3.
lint-policy:
	PYTHONPATH=src $(PYTHON) -m repro.cli lint \
		--taxonomy examples/documents/taxonomy.json \
		--policy examples/documents/policy.json \
		--population examples/documents/population.json \
		--candidate examples/documents/candidate.json \
		--alpha 0.7

# Population-scale static analysis: export every bundled dataset to
# documents, lint each (gate disabled — the bundled populations
# intentionally carry findings; the golden tests pin them), emit SARIF
# per dataset, then hold the SARIF schema and golden snapshot suites
# (the datasets' and the edge-case documents').  What CI's
# lint-populations job runs.
lint-populations:
	PYTHONPATH=src $(PYTHON) -m repro.datasets.export --out build/datasets
	@set -e; for dir in build/datasets/*/; do \
		name=$$(basename $$dir); \
		echo "== lint $$name"; \
		PYTHONPATH=src $(PYTHON) -m repro.cli lint \
			--taxonomy $$dir/taxonomy.json \
			--policy $$dir/policy.json \
			--population $$dir/population.json \
			--alpha 0.5 --fail-on never \
			--format sarif > build/datasets/$$name.sarif; \
	done
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/lint/test_sarif_schema.py \
		tests/lint/test_datasets_golden.py \
		tests/lint/test_edge_golden.py

all: test lint lint-policy lint-populations bench
