# Convenience targets for the MNSIM reproduction.

PYTHON ?= python

.PHONY: install test bench bench-runtime bench-spice \
	examples results trace-demo faults-demo campaign-demo serve-demo \
	lint lint-graph lint-baseline clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-verbose:
	$(PYTHON) -m pytest tests/ -v

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-runtime:
	$(PYTHON) -m pytest benchmarks/test_runtime_scaling.py -v

bench-spice:
	$(PYTHON) -m pytest benchmarks/test_spice_solver_perf.py -v

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

results: test bench
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# A small traced run (explore for the worker lanes, montecarlo for the
# solver internals), rendered with the obs-report terminal view.
trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro --trace demo.trace.json \
		explore mlp:128,64 --sizes 32 64 --degrees 1 --wires 45 --jobs 2
	PYTHONPATH=src $(PYTHON) -m repro obs-report demo.trace.json
	PYTHONPATH=src $(PYTHON) -m repro --trace demo-mc.trace.json \
		montecarlo --size 16 --trials 4 --jobs 2
	PYTHONPATH=src $(PYTHON) -m repro obs-report demo-mc.trace.json

# A small fault-injection sweep: stuck cells + open lines on a 16x16
# crossbar, run twice through the same cache to demonstrate the
# byte-reproducible campaign JSON and the 100%-hit replay.
faults-demo:
	PYTHONPATH=src $(PYTHON) -m repro faults \
		--modes stuck_mixed line_open --rates 0 0.02 0.05 \
		--trials 6 --seed 1 --jobs 2 \
		--cache-dir .repro-cache -o faults-demo.json
	PYTHONPATH=src $(PYTHON) -m repro faults \
		--modes stuck_mixed line_open --rates 0 0.02 0.05 \
		--trials 6 --seed 1 --jobs 2 \
		--cache-dir .repro-cache -o faults-demo-rerun.json
	cmp faults-demo.json faults-demo-rerun.json

# Declarative campaign demo (DESIGN.md S24): validate the example
# file, run it through a cache, then resume against the same cache —
# every unit stage replays from the stage cache and the two reports
# must match byte-for-byte.  The same sequence (plus a mid-flight
# kill) runs in CI as the campaign-smoke job.
campaign-demo:
	PYTHONPATH=src $(PYTHON) -m repro campaign validate \
		examples/campaigns/fault-sweep.json
	PYTHONPATH=src $(PYTHON) -m repro campaign run \
		examples/campaigns/fault-sweep.json \
		--cache-dir .repro-cache -o campaign-demo.json
	PYTHONPATH=src $(PYTHON) -m repro campaign resume \
		examples/campaigns/fault-sweep.json \
		--cache-dir .repro-cache -o campaign-demo-rerun.json
	cmp campaign-demo.json campaign-demo-rerun.json

# Boot the job server on an ephemeral port, drive one Monte-Carlo
# payload through submit -> event stream -> result with curl, verify
# the result matches the CLI byte-for-byte, then shut down.  The same
# sequence runs in CI as the service-smoke job.
serve-demo:
	@rm -f .serve-demo-port
	@PYTHONPATH=src $(PYTHON) -m repro serve --port 0 \
		--port-file .serve-demo-port --cache-dir .repro-cache & \
	SERVER=$$!; \
	trap 'kill $$SERVER 2>/dev/null' EXIT; \
	for _ in $$(seq 50); do \
		test -s .serve-demo-port && break; sleep 0.2; \
	done; \
	PORT=$$(cat .serve-demo-port); \
	echo "== server on port $$PORT"; \
	curl -fsS -X POST "http://127.0.0.1:$$PORT/jobs" \
		-H 'Content-Type: application/json' \
		-d '{"kind":"montecarlo","montecarlo":{"trials":4,"seed":7,"size":16}}' \
		-o .serve-demo-receipt.json; \
	JOB=$$($(PYTHON) -c "import json;print(json.load(open('.serve-demo-receipt.json'))['job_id'])"); \
	echo "== job $$JOB"; \
	curl -fsS "http://127.0.0.1:$$PORT/jobs/$$JOB/events"; \
	curl -fsS "http://127.0.0.1:$$PORT/jobs/$$JOB/result" \
		-o serve-demo.json; \
	PYTHONPATH=src $(PYTHON) -m repro montecarlo --trials 4 --seed 7 \
		--size 16 --cache-dir .repro-cache -o serve-demo-cli.json; \
	cmp serve-demo.json serve-demo-cli.json && \
	echo "== service result is byte-identical to the CLI"

# Project-specific static analysis (repro lint, DESIGN.md S20) plus
# generic hygiene via ruff when it is installed (pinned in pyproject;
# CI always runs it, local runs degrade gracefully without it).
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src/repro \
		--baseline lint-baseline.json
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src \
		|| echo "ruff not installed; skipped (pip install ruff==0.5.7)"

# Project-analysis rules only (R7-R9: lock discipline, thread
# lifecycle, determinism taint) with the call-graph pass and its
# build-time figure in the summary line.
lint-graph:
	PYTHONPATH=src $(PYTHON) -m repro lint src/repro \
		--baseline lint-baseline.json --graph --select R7,R8,R9

# Regenerate lint-baseline.json from the current findings.  Newly
# grandfathered entries get a placeholder justification — replace it
# by hand; tests/test_analysis_rules.py rejects the placeholder.
lint-baseline:
	PYTHONPATH=src $(PYTHON) -m repro lint src/repro \
		--baseline lint-baseline.json --update-baseline

# Local artifacts only — never touches the user-global ~/.cache/repro.
clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results .repro-cache
	rm -f last_run.json *.trace.json faults-demo.json faults-demo-rerun.json
	rm -f lint-report.json serve-demo.json serve-demo-cli.json
	rm -f campaign-demo.json campaign-demo-rerun.json
	rm -f .serve-demo-port .serve-demo-receipt.json
	find . -name __pycache__ -type d -exec rm -rf {} +
