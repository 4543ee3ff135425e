# Convenience targets for the FaasCache reproduction.

PYTHON ?= python

.PHONY: install ci-install test bench bench-pytest bench-ci fairness serve live-smoke lint typecheck check check-incremental sanitize examples reproduce clean

install:
	$(PYTHON) setup.py develop

# The editable install CI jobs use (mirrors .github/actions/setup).
# EXTRAS selects optional dependency groups: make ci-install EXTRAS=[dev]
ci-install:
	$(PYTHON) -m pip install -e ".$(EXTRAS)"

test:
	$(PYTHON) -m pytest tests/

# Pinned-seed replay suite gated against the checked-in baseline
# (docs/performance.md). Writes BENCH_local.json.
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_bench.py --baseline benchmarks/BASELINE.json

bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Machine-readable bench gate (what CI uploads as BENCH_ci.json).
bench-ci:
	$(PYTHON) benchmarks/ci_export.py --out BENCH_ci.json

# Multi-tenant fairness determinism gate (docs/multi-tenancy.md):
# noisy-neighbor Jain's index pinned vs benchmarks/TENANT_FAIRNESS.json.
fairness:
	PYTHONPATH=src $(PYTHON) benchmarks/tenant_fairness_gate.py

# Live serving mode (docs/live-serving.md): a GD server on the
# built-in skewed-frequency workload. Override: make serve TRACE=day.json
TRACE ?= skewed-frequency
serve:
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --trace $(TRACE) \
		--policy GD --memory-gb 8 --port 8077

# Two-process serve+loadgen smoke gate: zero 5xx, server/client
# counter consistency, calibration-normalized decision p99 ceiling.
live-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/live_smoke_gate.py

# Both need their tool installed (pip install -e ".[lint]" / ".[typecheck]").
lint:
	ruff check src tests benchmarks
	$(PYTHON) -m compileall -q src

typecheck:
	mypy src/repro

# The determinism & invariant linter (rules FC001-FC004 and FC006-FC011; see
# docs/static-analysis.md). Stdlib-only: needs no extra installs.
# Uses the incremental cache (.repro-checks-cache.json) so warm
# re-runs finish in well under 2 seconds.
check:
	PYTHONPATH=src $(PYTHON) -m repro.checks src tests --stats

# CI's incremental-cache contract, locally: a cold run then a warm
# run, which must agree finding-for-finding (modulo the cache
# section of the stats) and hit the cache on every file.
check-incremental:
	rm -f .repro-checks-cache.json
	PYTHONPATH=src $(PYTHON) -m repro.checks src tests --stats-json .stats_cold.json
	PYTHONPATH=src $(PYTHON) -m repro.checks src tests --stats-json .stats_warm.json
	PYTHONPATH=src $(PYTHON) -c "import json; \
		cold = json.load(open('.stats_cold.json')); \
		warm = json.load(open('.stats_warm.json')); \
		assert warm['cache']['hit_rate'] == 1.0, warm['cache']; \
		cold.pop('cache'); warm.pop('cache'); \
		assert cold == warm, (cold, warm); \
		print('cold and warm runs agree')"

# Tier-1 tests with the runtime invariant sanitizer hooks enabled.
sanitize:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

# The full reproduction record: tests + every table/figure, tee'd to
# the repository root as EXPERIMENTS.md expects.
reproduce:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache benchmarks/results .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
