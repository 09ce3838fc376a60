"""Benchmark entry point.

    python3 perfbench/run.py --workload {suite,inclusion} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` of
the checkout the script sits in.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  See README.md in this directory.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import json
import os

# One BLAS thread, inherited by every child: no run starts extra threads,
# and the matrices here (n <= 16) are far too small for BLAS to split.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import resource
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh processes that repeat the set-up, besides this one.
SETUP_CHILDREN = 4
#: Fresh processes per start-up probe in the traced run.
STARTUP_PROBES = 3


def import_package() -> None:
    """Import the package from this checkout's ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    import domcone.cli  # noqa: F401  (the import every user of the package pays)


def setup(workload: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs."""
    import_package()
    from workloads import WORKLOADS

    return WORKLOADS[workload](seed, workdir)


def run_rounds(ops, seconds: float, errors: list) -> dict:
    """Run whole rounds of ``ops`` until the next round would end after
    ``seconds``; at least one round."""
    latencies, round_times = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not round_times or (time.perf_counter() - start) + round_times[-1] <= seconds:
        r0 = time.perf_counter()
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation is a failed one
                err = f"raised {type(exc).__name__}: {exc}"
            else:
                err = None
            latencies.append(time.perf_counter() - t0)
            if err is None:
                try:
                    err = op.check(out)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    err = f"malformed output: {exc!r}"
            if err:
                failed += 1
                if not op.known:
                    errors.append(f"{op.name}: {err}")
        round_times.append(time.perf_counter() - r0)
    return {
        "attempted": attempted,
        "failed": failed,
        "latencies": latencies,
        "round_times": round_times,
        "elapsed": time.perf_counter() - start,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, first: float) -> float:
    """Median set-up time over this process and SETUP_CHILDREN fresh ones."""
    from workloads import run_child

    samples = [first]
    for _ in range(SETUP_CHILDREN):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
        code, out = run_child(argv)
        if code != 0:
            raise RuntimeError(f"set-up child exited with {code}")
        samples.append(float(out.strip().splitlines()[-1]))
    return statistics.median(samples)


def startup_probes() -> dict:
    """Interpreter start-up and ``import domcone.cli`` in fresh processes."""
    from workloads import run_child

    interp, imports = [], []
    code = "import time; t = time.perf_counter(); import domcone.cli; print(time.perf_counter() - t)"
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        interp.append(time.perf_counter() - t0)
        status, out = run_child([sys.executable, "-c", code])
        if status != 0:
            raise RuntimeError("import probe failed")
        imports.append(float(out))
    return {
        "cli.interp_ms": (1e3 * statistics.median(interp), "ms"),
        "cli.import_ms": (1e3 * statistics.median(imports), "ms"),
    }


def op_p50(latencies: list, ops_per_round: int) -> float:
    """Median over the round's operations of each one's mean latency.

    The host's speed changes in phases of tens of seconds, and a median of
    single latencies jumps between a fast and a slow phase as their shares
    pass one half; each operation's mean over the run follows those shares
    smoothly.  The median over operations still sits in the cluster that
    holds most of them.
    """
    means = [statistics.fmean(latencies[i::ops_per_round]) for i in range(ops_per_round)]
    return statistics.median(means)


def untraced(args, bench, setup_s: float, errors: list) -> tuple:
    res = run_rounds(bench.ops, args.seconds, errors)
    metrics = {
        "setup_s": (measure_setup(args.workload, args.seed, setup_s), "s"),
        "wall_s": (res["elapsed"] / len(res["round_times"]), "s"),
        "op_p50_ms": (1e3 * op_p50(res["latencies"], len(bench.ops)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return res, metrics


def traced(args, workdir: Path, errors: list) -> tuple:
    """The traced run, made apart from the untraced one.

    Each cycle runs one suite pass, one inclusion round and the CLI
    commands through ``cli.main`` in process, all traced, then the
    start-up probes.  Cycles repeat while the next one fits in ``--seconds``.
    Counts are per cycle and equal in every cycle; times are medians over
    cycles.  ``traced.round_s`` is the selected workload's traced round,
    to set against the untraced ``wall_s``; attempted and failed count
    that workload's operations only.
    """
    import_package()
    from tracer import Tracer
    from workloads import WORKLOADS, CliCommands

    with Tracer() as tracer:  # set-up is traced too: it registers the catalog oracles
        cycle = [(name, cls(args.seed, workdir).ops) for name, cls in WORKLOADS.items()]
        cycle.append(("cli_main", CliCommands(args.seed, workdir).in_process_ops()))

        per_cycle, own = [], {"attempted": 0, "failed": 0}
        start = time.perf_counter()
        # start another cycle only if it should end within --seconds
        while not per_cycle or (elapsed := time.perf_counter() - start) + elapsed / len(per_cycle) <= args.seconds:
            tracer.reset()
            for name, ops in cycle:
                res = run_rounds(ops, 0.0, errors)
                if name == args.workload:
                    round_s = res["round_times"][0]
                    own["attempted"] += res["attempted"]
                    own["failed"] += res["failed"]
            metrics = tracer.layer_metrics()
            metrics.update(startup_probes())
            metrics["traced.round_s"] = (round_s, "s")
            per_cycle.append(metrics)
        tracer.write_spans(OUT / f"trace-{args.workload}-{args.seed}.json")

    metrics = {
        name: (statistics.median(m[name][0] for m in per_cycle), unit)
        for name, (_, unit) in per_cycle[0].items()
    }
    return own, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "inclusion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time set-up alone and print it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "domcone" / "__init__.py").is_file():
        print(f"run.py: no domcone package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            print(time.perf_counter() - _T0)
            return 0
        errors: list[str] = []
        if args.trace:
            counts, metrics = traced(args, workdir, errors)
        else:
            bench = setup(args.workload, args.seed, workdir)
            counts, metrics = untraced(args, bench, time.perf_counter() - _T0, errors)

    for err in errors[:20]:
        print("CHECK FAILED", err, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
