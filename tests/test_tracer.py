"""The benchmark's span tracer still finds every name it patches in src/."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import Tracer  # noqa: E402
from ssmprune import layers, model, pruning, ssm, tensor, training  # noqa: E402

OWNERS = (layers, model, pruning, ssm, tensor, training, tensor.Graph, model.Model,
          model.MambaBlock, model.TransformerBlock, model.DecodeSession,
          pruning.CalibrationSet, training.Corpus, training.Adam)


def test_tracer_install_wraps_and_uninstall_restores():
    before = [dict(vars(o)) for o in OWNERS]
    compact = model.Model.__dict__["compact"]
    tracer = Tracer()
    try:
        tracer.install()
        patched = model.Model.__dict__["compact"]
        assert patched is not compact and patched.__wrapped__ is compact
        assert [dict(vars(o)) for o in OWNERS] != before
    finally:
        tracer.uninstall()
    assert model.Model.__dict__["compact"] is compact
    after = [dict(vars(o)) for o in OWNERS]
    for owner, was, now in zip(OWNERS, before, after):
        assert now.keys() == was.keys(), owner
        assert all(now[k] is was[k] for k in was), owner
