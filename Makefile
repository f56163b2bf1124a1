# Developer entry points. The same commands CI runs; PYTHONPATH=src is
# exported so no editable install is needed.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test test-bench ab

# nrmi-lint gates src/ and examples/ at zero findings (tests/ is excluded
# on purpose: analysis_fixtures/ seeds deliberate violations). ruff covers
# all three trees when available; the container image may not ship it, so
# its absence is a skip, not a failure.
lint:
	$(PYTHON) -m repro.analysis src examples
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples; \
	else \
		echo "ruff not installed; skipping style pass"; \
	fi

test:
	$(PYTHON) -m pytest -x -q

test-bench:
	$(PYTHON) -m pytest -q -m bench_smoke

# Interleaved A/B of two revisions on callpath workloads (ten pairs of
# 21 s runs per workload: about nine minutes each). A is the parent, B the
# change; W may list several workloads, each held to its BENCHMARK.json
# bounds. CLAIM=WORKLOAD:METRIC names the gain claimed, if there is one:
#   make ab A=HEAD~1 B=HEAD W="echo64_tcp echo64_shm" CLAIM=echo64_tcp:call_p50_us
A ?= HEAD~1
B ?= HEAD
W ?= tree_full_tcp
CLAIM ?=
ab:
	$(PYTHON) tools/ab_callpath.py $(A) $(B) $(foreach w,$(W),--workload $(w)) $(if $(CLAIM),--claim $(CLAIM))
