# Convenience targets for the repro library.

PY ?= python3

.PHONY: help install test lint analyze bench bench-fast bench-smoke bench-e2e serve-smoke serve-shard-smoke faults-smoke relay-smoke reproduce examples clean

help:
	@echo "install      pip install -e ."
	@echo "test         full test suite"
	@echo "lint         concurrency/protocol lint + DT7xx lockset + DT8xx resource-flow + DT9xx protocol conformance + lint-marked tests"
	@echo "analyze      DT7xx lockset + DT8xx resource-flow + DT9xx protoflow analyzers alone (src, against lint_baseline.json)"
	@echo "bench        full benchmark suite"
	@echo "bench-smoke  fast perf guardrails (decode, render, serve, shards, faults, relay), each once"
	@echo "bench-e2e    the end-to-end, layer-attributed benchmark (BENCHMARK.json's command; see e2ebench/README.md)"
	@echo "reproduce    regenerate the paper-reproduction report"
	@echo "examples     run every example script"
	@echo "clean        remove build/test artifacts"

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

# Repo-specific static checks (rule catalogue in docs/devtools.md) plus
# the tests that pin the rules and the analyzers themselves.
# `repro lint` runs the DT1xx-DT6xx rules, the DT7xx lockset race
# analyzer, the DT8xx resource-lifecycle analyzer AND the DT9xx
# protocol-conformance analyzer over one parse of each file; the three
# deep analyzers are filtered through lint_baseline.json.
lint:
	PYTHONPATH=src $(PY) -m repro lint src tests
	PYTHONPATH=src $(PY) -m pytest tests/ -m lint

# The deep analyzers alone — useful while triaging a finding or
# refreshing the baseline (`make analyze` then `repro lint --update-baseline`).
analyze:
	PYTHONPATH=src $(PY) -m repro.devtools.lockset src
	PYTHONPATH=src $(PY) -m repro.devtools.resource_flow src
	PYTHONPATH=src $(PY) -m repro.devtools.protoflow src

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-fast:
	REPRO_BENCH_FAST=1 $(PY) -m pytest benchmarks/ --benchmark-only

# Quick perf guardrails (seconds, not minutes): runs every
# perf_smoke-marked test once — the codec throughput floors, the render
# skipping ratio (sparse jet frame vs the same frame with nothing to skip)
# plus the four scenario guardrails below, which are the same marked files
# and exist as targets only for selective runs.
# PYTHONPATH=src so it works from a fresh checkout without `make install`.
bench-smoke:
	PYTHONPATH=src $(PY) -m pytest tests/ -m perf_smoke

# The command BENCHMARK.json declares: all four workloads of the real
# render -> codec -> wire -> serve -> relay path (e2ebench/README.md).
bench-e2e:
	$(PY) -m e2ebench run

# Serving-layer guardrail: the fan-out benchmark at tiny scale
# (4 viewers, 16 frames) — catches broker/cache regressions in seconds.
serve-smoke:
	PYTHONPATH=src $(PY) -m pytest tests/unit/test_serve_smoke.py -m perf_smoke

# Scale-out guardrail: 2 shards x 2 encode workers at 4 and 64 viewers —
# warm fps must not collapse as the viewer count grows 16x.
serve-shard-smoke:
	PYTHONPATH=src $(PY) -m pytest tests/unit/test_shard_smoke.py -m perf_smoke

# Resilience guardrail: one lossy/jittery WAN cell — catches retry,
# credit-leak, and reconnect-resume regressions in seconds.
faults-smoke:
	PYTHONPATH=src $(PY) -m pytest tests/unit/test_faults_smoke.py -m perf_smoke

# Relay-tier guardrail: one replay-heavy two-relay topology — catches
# offload, store, prefetch, and ownership-ring regressions in seconds.
relay-smoke:
	PYTHONPATH=src $(PY) -m pytest tests/unit/test_relay_smoke.py -m perf_smoke

reproduce:
	$(PY) examples/reproduce_paper.py

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/partition_tuning.py
	$(PY) examples/compression_explorer.py
	$(PY) examples/remote_session_nasa.py
	$(PY) examples/ibr_explorer.py
	$(PY) examples/tcp_deployment.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
