"""Re-measure the ROADMAP north-star baseline figures, with no gate.

    python3 perfbench/baseline.py

Prints each figure as measured here beside the earlier measurement of it
(README.md names the source of each), on the untrained 12-block d=64
`toy_descriptor()` with BLAS on one thread.
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import perfbench.run  # noqa: E402,F401  (pins BLAS threads before numpy loads)

import numpy as np  # noqa: E402

from ssmprune.model import DecodeSession, Model, toy_descriptor  # noqa: E402
from ssmprune.pruning import CalibrationSet, Stage, candidates_for, score_all  # noqa: E402
from ssmprune.training import Corpus, TrainConfig, train  # noqa: E402


def timed(fn, repeats: int = 1) -> float:
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


SEED = 0


def main() -> int:
    corpus = Corpus.bundled()
    model = Model.build(toy_descriptor(), SEED)
    rows = []

    cal32 = CalibrationSet(corpus, 32, 128, 16)
    rows.append(("calibration pass, 32x128 windows", "s", "2.2",
                 timed(lambda: cal32.ppl(model), 3)))
    cal16 = CalibrationSet(corpus, 16, 128, 16)
    rows.append(("calibration forward, 16x128", "s", "0.93",
                 timed(lambda: model.forward(cal16.tokens), 3)))
    cands = candidates_for(model, Stage(("mamba_block", "transformer_block"), 1))
    for threads, ref in ((1, "13.3"), (2, "7.8")):
        rows.append((f"greedy iteration, {len(cands)} block candidates, 16x128, "
                     f"{threads} thread(s)", "s", ref,
                     timed(lambda: score_all(model, cands, cal16, threads))))
    cfg = TrainConfig(steps=3, batch_size=8, seq_len=128, seed=SEED)
    rows.append(("train step, 8x128 (mean of 3)", "s", "1.25-1.46",
                 timed(lambda: train(model.clone(), corpus, cfg)) / 3))
    prompt = np.random.default_rng(SEED).integers(0, model.desc.vocab, (1, 512))
    rows.append(("prefill, 512 tokens", "s", "0.29", timed(lambda: model.forward(prompt), 3)))
    sess = DecodeSession(model, capacity_hint=600)
    nxt = sess.prefill(prompt).argmax(axis=-1)
    steps = []
    for _ in range(64):
        t0 = time.perf_counter()
        nxt = sess.step(nxt).argmax(axis=-1)
        steps.append(1000 * (time.perf_counter() - t0))
    rows.append(("decode after a 512-token prompt, median", "ms", "2.95",
                 statistics.median(steps)))

    print(f"{'figure':<58} {'earlier':>10} {'here':>8}")
    for name, unit, ref, here in rows:
        print(f"{name:<58} {ref + ' ' + unit:>10} {here:>6.3g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
