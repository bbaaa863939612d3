"""Check that the end-to-end metrics are steady across seeds.

    python3 perfbench/steady.py --workload generate --seeds 10

Runs the workload once per seed (1, 2, ...) with BENCHMARK.json's
`run_seconds`, then prints, for each end-to-end metric, its median and the
distance between its first and third quartiles as a share of the median,
beside the metric's bound. A spread below a third of the bound counts as
steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in range(1, args.seeds + 1):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        for k, v in res["metrics"].items():
            values[k].append(v["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}"
                                           for k, v in res["metrics"].items()), flush=True)
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = quartile_spread(xs)
        steady = spread < m["bound"] / 3
        ok = ok and steady
        print(f"{m['name']:>14} median {statistics.median(xs):.6g} {m['unit']:<5} "
              f"spread {spread:.4f} bound {m['bound']} {'ok' if steady else 'UNSTEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
