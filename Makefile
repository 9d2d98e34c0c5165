PYTHON ?= python

.PHONY: test bench bench-quick suite-quick

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_perf.py

bench-quick:
	PYTHONPATH=src $(PYTHON) benchmarks/run_perf.py --quick

suite-quick:
	$(PYTHON) -m pytest benchmarks/suite -q
