"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload greedy-prune --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from its
`src/` tree, never from an installed copy. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; with
`--trace 0` the metrics are the `end_to_end` list of BENCHMARK.json, measured
with no wrapper installed, and with `--trace 1` the `per_layer` list, from a
run with every traced name patched. The lines before it are a report with
the environment, every named metric of the workload, output digests, and
(traced) the full per-layer table. Reports and spans are also written under
`.bench_out/`.
"""

import os
import sys

PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _pin_blas() -> None:
    """Pin BLAS pools to one thread before numpy loads, as `ssmprune` does."""
    if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in PINS):
        sys.exit("perfbench: numpy was imported before the BLAS thread pins "
                 "were set; start the benchmark with this file")
    for v in PINS:
        os.environ.setdefault(v, "1")
    loose = [v for v in PINS if os.environ[v] != "1"]
    if loose:
        sys.exit(f"perfbench: {loose[0]}={os.environ[loose[0]]}, the benchmark "
                 "runs BLAS on one thread")


_pin_blas()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_MIN times and, when it is quick, until about
# SETUP_SECONDS have gone into it (at most SETUP_MAX times): the median of a
# set-up that takes milliseconds then rests on tens of samples.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 50, 1.0
SETUP_RUN = -1  # run id of the traced set-up's spans; requests count from 0


def _git(*args: str):
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pins": {v: os.environ.get(v) for v in PINS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def setup_repeats(first_s: float) -> int:
    """How many times to set up in all, given the first set-up's time."""
    return min(SETUP_MAX, max(SETUP_MIN, math.ceil(SETUP_SECONDS / first_s)))


def measure(work, seconds: float, tracer) -> list:
    """Set up `setup_repeats` times (the last one traced), then run requests
    until `seconds` have passed. Returns the set-up times."""
    setup_s = []
    repeats = SETUP_MIN
    while len(setup_s) < repeats:
        if tracer is not None:
            tracer.run, tracer.enabled = SETUP_RUN, len(setup_s) == repeats - 1
        t0 = time.perf_counter()
        work.setup()
        setup_s.append(time.perf_counter() - t0)
        if len(setup_s) == 1:
            repeats = setup_repeats(setup_s[0])
    if tracer is not None:
        tracer.enabled = False
    work.setup_checks()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.run, tracer.enabled = i, True
        work.request(i)
        i += 1
    if tracer is not None:
        tracer.enabled = False
    return setup_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ssmprune" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'ssmprune'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; expected one "
                 f"of {sorted(workloads.WORKLOADS)}")
    out_dir = ROOT / ".bench_out"
    scratch = out_dir / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    work = workloads.WORKLOADS[args.workload](args.seed, str(scratch), tracer)
    if tracer is not None:
        tracer.install()
    try:
        setup_s = measure(work, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    named = work.metrics()
    named["setup_s"] = {"value": statistics.median(setup_s), "unit": "s",
                        "samples": setup_s}
    named["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    e2e = {"setup_s": named["setup_s"]["value"],
           "peak_rss_mb": named["peak_rss_mb"]["value"], **work.tracked(named)}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "metrics": named, "end_to_end": e2e, "digests": work.digest(),
              "failures": work.failures}
    if tracer is not None:
        setup = [s for s in tracer.spans if s.run == SETUP_RUN]
        served = [s for s in tracer.spans if s.run != SETUP_RUN]
        layer = tracing.layer_metrics(served, workloads.threads(), work.units())
        layer.update({f"trace.{k}": v for k, v in e2e.items()})
        report["per_layer_unit"] = {"unit": work.unit, "units": work.units()}
        report["per_layer"] = {k: {"value": v, "unit": tracing.metric_unit(k)}
                               for k, v in layer.items()}
        report["per_layer_setup"] = {
            k: {"value": v, "unit": tracing.metric_unit(k)}
            for k, v in tracing.layer_metrics(setup, workloads.threads(), 1).items() if v}
        tracer.write(str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl"))
        wanted, values = spec["per_layer"], layer
    else:
        wanted, values = spec["end_to_end"], e2e
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    print(json.dumps(report, indent=1))
    report["raw"] = work.raw()
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": work.failed == 0 and work.attempted > 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
