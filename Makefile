# Convenience targets for the repro library.

.PHONY: install test bench examples figures clean serve-demo \
	lint lint-privacy lint-ruff lint-mypy

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# ----------------------------------------------------------------------- #
# Static analysis.  privacy-lint (tools/privacy_lint, stdlib-only) always
# runs and is the gate for the paper's trust-boundary invariants; ruff and
# mypy run when installed (CI installs them; the bare container may not).
# ----------------------------------------------------------------------- #
lint: lint-privacy lint-ruff lint-mypy

lint-privacy:
	python -m tools.privacy_lint src/repro

lint-ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "lint-ruff: ruff not installed — skipping (CI runs it)"; \
	fi

lint-mypy:
	@if python -c "import mypy" >/dev/null 2>&1; then \
		python -m mypy; \
	else \
		echo "lint-mypy: mypy not installed — skipping (CI runs it)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

# Three real processes over localhost TCP: an SSI server (with its
# Prometheus endpoint up), a fleet of TDS clients and one querier running
# four of the five protocols.  After the queries, the metrics endpoint is
# scraped and asserted on, and `repro stats` fetches the same registry
# over the wire protocol.
SERVE_DEMO_PORT ?= 7464
SERVE_DEMO_METRICS_PORT ?= 9464
serve-demo:
	@set -e; \
	PYTHONPATH=src python -m repro serve --port $(SERVE_DEMO_PORT) \
		--metrics-port $(SERVE_DEMO_METRICS_PORT) --partition-timeout 2.0 & \
	SERVE_PID=$$!; \
	trap 'kill $$SERVE_PID 2>/dev/null || true' EXIT; \
	sleep 1.5; \
	PYTHONPATH=src python -m repro fleet --port $(SERVE_DEMO_PORT) --tds 8 --seed 3 --queries 4 & \
	FLEET_PID=$$!; \
	sleep 0.5; \
	PYTHONPATH=src python -m repro query --port $(SERVE_DEMO_PORT) --tds 8 --seed 3 --protocol s_agg; \
	PYTHONPATH=src python -m repro query --port $(SERVE_DEMO_PORT) --tds 8 --seed 3 --protocol ed_hist; \
	PYTHONPATH=src python -m repro query --port $(SERVE_DEMO_PORT) --tds 8 --seed 3 --protocol c_noise; \
	PYTHONPATH=src python -m repro query --port $(SERVE_DEMO_PORT) --tds 8 --seed 3 --protocol basic \
		--query "SELECT cid, district FROM Consumer WHERE cid < 4"; \
	wait $$FLEET_PID; \
	python tools/check_metrics_endpoint.py --port $(SERVE_DEMO_METRICS_PORT) --min-requests 10 --check-healthz; \
	PYTHONPATH=src python -m repro stats --port $(SERVE_DEMO_PORT) | grep -q 'repro_ssi_requests_total{msg_type="post_query",outcome="ok"} 4' \
		&& echo "ok: repro stats sees all four demo queries"

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python $$script || exit 1; \
	done

figures:
	python -m repro figures

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
