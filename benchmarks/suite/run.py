"""The benchmark driver: one workload per invocation.

    python3 benchmarks/suite/run.py --workload rebuild_cpu --seed 1 \\
        --seconds 15 --trace 0

prints every metric by name with its unit, checks the outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is non-zero when a check fails.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

WORKLOADS = (
    "rebuild_cpu", "rebuild_io", "oltp_alone", "oltp_rebuild", "crash_recover",
)
QUICK_FACTOR = 0.05
MAX_CYCLES = 12
OPEN_LOOP_SHARE = 0.7
"""Share of ``--seconds`` the open-loop phase of a one-cycle run lasts;
the rest goes to the rebuild and the closed-loop segments."""
TRACE_DIR = ".bench_out"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="how long the run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer metrics from a traced cycle")
    p.add_argument("--traced", action="store_const", const=1, dest="trace",
                   help="same as --trace 1")
    p.add_argument("--quick", action="store_true",
                   help="about 1/20 size smoke run, checks on")
    p.add_argument("--json", metavar="PATH",
                   help="append this run's record to PATH as one JSON line")
    return p.parse_args(argv)


def run_cycles(name: str, spec, seed: int, seconds: float) -> list:
    """Untraced cycles for ``seconds`` (at least ``spec.min_cycles``);
    one cycle for the workloads whose phases are sized by ``seconds``."""
    import workloads as W

    cycle = W.CYCLES[name]
    if name in W.ONE_CYCLE:
        return [cycle(spec, seed, seconds=seconds * OPEN_LOOP_SHARE)]
    cycles = []
    start = time.perf_counter()
    while True:
        gc.collect()  # drop the previous engine outside any timed region
        cycles.append(cycle(spec, seed))
        elapsed = time.perf_counter() - start
        one_more = elapsed + elapsed / len(cycles)
        if len(cycles) >= spec.min_cycles and (
            one_more > seconds or len(cycles) >= MAX_CYCLES
        ):
            return cycles


def run_traced(name: str, spec, seed: int, seconds: float):
    """One untraced cycle for the counts and the reference wall, one
    traced cycle for the times.  Returns (cycle, traced cycle, summary,
    untraced callables, Table 1 ratios, all cycles)."""
    import workloads as W
    from layer_trace import LayerTrace, summarize

    cycle_fn = W.CYCLES[name]
    phase = seconds * OPEN_LOOP_SHARE
    plain = cycle_fn(spec, seed, seconds=phase)
    cycles = [plain]
    table1: dict[str, float] = {}
    if name == "rebuild_cpu":
        # Table 1's comparison point: one page per top action.
        single = W.rebuild_cycle(spec, seed, ntasize=1)
        cycles.append(single)
        j1, j32 = single.job, plain.job
        if j1.pages and j32.pages and j32.log_bytes and j32.cpu_s:
            table1 = {
                "log_ratio": (j1.log_bytes / j1.pages)
                / (j32.log_bytes / j32.pages),
                "cpu_ratio": (j1.cpu_s / j1.pages) / (j32.cpu_s / j32.pages),
            }
            if table1["log_ratio"] < 2.0:
                single.errors.append(
                    "Table 1 direction lost: ntasize=1 logs only "
                    f"{table1['log_ratio']:.2f}x the bytes per page"
                )
                single.ops_failed += 1
    gc.collect()
    with LayerTrace() as trace:
        traced = cycle_fn(spec, seed, recorder=trace.recorder, seconds=phase)
    cycles.append(traced)
    threads = trace.recorder.threads()
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace.recorder.write_jsonl(os.path.join(TRACE_DIR, f"spans-{name}.jsonl"))
    return plain, traced, summarize(threads), trace.untraced, table1, cycles


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401 - the engine under test
    except ImportError as exc:
        print(f"cannot import the engine (expected its source in {_SRC}): "
              f"{exc}", file=sys.stderr)
        return 2
    import metrics as M
    import workloads as W

    spec = W.SPECS[args.workload]
    seconds = args.seconds
    if args.quick:
        spec = W.scaled(spec, QUICK_FACTOR)
        seconds = min(seconds, 1.5)
    gc.collect()
    gc.freeze()  # imported modules never need another look from the GC
    startup_s = time.perf_counter() - _PROCESS_START

    untraced: list[str] = []
    if args.trace:
        plain, traced, summary, untraced, table1, cycles = run_traced(
            args.workload, spec, args.seed, seconds
        )
        report = M.per_layer(plain, traced, summary, untraced, table1)
    else:
        cycles = run_cycles(args.workload, spec, args.seed, seconds)
        report = M.end_to_end(cycles, startup_s)

    attempted = sum(c.ops_attempted for c in cycles)
    failed = sum(c.ops_failed for c in cycles)
    errors = [e for c in cycles for e in c.errors]
    correct = failed == 0 and not errors and attempted > 0

    print(f"workload {args.workload}  seed {args.seed}  "
          f"cycles {len(cycles)}  trace {args.trace}")
    for name, row in report.items():
        detail = ""
        if "cycles" in row:
            detail = (f"   [q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                      f"cycles {row['cycles']}]")
        print(f"  {name:<34} {row['value']:>16.6f} {row['unit']:<8}{detail}")
    print(f"  {'ops_attempted':<34} {attempted:>16d}")
    print(f"  {'ops_failed':<34} {failed:>16d}")
    for name in untraced:
        print(f"  untraced: {name}")
    for error in errors[:10]:
        print(f"  FAILED CHECK: {error}")

    if args.json:
        record = {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": seconds, "quick": args.quick,
            "correct": correct, "attempted": attempted, "failed": failed,
            "cycles": len(cycles), "metrics": report,
            "untraced": untraced, "errors": errors[:10],
            "as_measured": [
                {"job_wall_s": c.job.raw_wall_s, "job_cpu_s": c.job.raw_cpu_s,
                 "job_pages": c.job.pages, "host_speeds": c.speeds}
                for c in cycles
            ],
        }
        with open(args.json, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": row["value"], "unit": row["unit"]}
            for name, row in report.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
