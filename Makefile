PYTHON ?= python

.PHONY: test guards suite-quick

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

guards:
	$(PYTHON) tools/lint_no_io_under_lock.py
	PYTHONPATH=src $(PYTHON) -m pytest -x -q \
		tests/integration/test_io_budget.py \
		tests/integration/test_cpu_budget.py \
		tests/integration/test_scan_budget.py \
		tests/integration/test_request_budget.py \
		tests/integration/test_restart_budget.py \
		tests/integration/test_readahead_budget.py \
		tests/integration/test_write_budget.py \
		tests/integration/test_io_mode.py

suite-quick:
	$(PYTHON) -m pytest benchmarks/suite -q
