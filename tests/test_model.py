"""Registry, removal semantics, accounting, checkpoints, compaction, decode."""

import re

import numpy as np
import pytest

from ssmprune import model as md
from ssmprune.errors import CheckpointError, ConfigError, StateError, TokenError
from ssmprune.model import ArchDescriptor, DecodeSession, Model, toy_descriptor

from oracles import rel_err


def tiny_desc(**kw):
    args = dict(n_blocks=4, transformer_at=(1,), vocab=50, d_model=16,
                d_state=4, mlp_hidden=32, n_heads=2)
    args.update(kw)
    return toy_descriptor(**args)


def tokens_for(desc, rng, B=2, T=9):
    return rng.integers(0, desc.vocab, size=(B, T))


# -- build ------------------------------------------------------------------

def test_build_is_deterministic_per_seed():
    desc = tiny_desc()
    a = Model.build(desc, 7)
    b = Model.build(desc, 7)
    c = Model.build(desc, 8)
    for name, t in a.named_tensors().items():
        assert t.data.tobytes() == b.named_tensors()[name].data.tobytes(), name
    assert any(
        t.data.tobytes() != c.named_tensors()[n].data.tobytes()
        for n, t in a.named_tensors().items()
    )


def test_descriptor_validation_names_the_field():
    with pytest.raises(ConfigError, match="vocab"):
        ArchDescriptor(1, 8, 1, ("mamba1",), 4, (0,)).validate()
    with pytest.raises(ConfigError, match="block_kinds"):
        ArchDescriptor(50, 8, 2, ("mamba1",), 4, (0, 0)).validate()
    with pytest.raises(ConfigError, match="unknown block kind"):
        ArchDescriptor(50, 8, 1, ("lstm",), 4, (0,)).validate()
    with pytest.raises(ConfigError, match="mlp_hidden"):
        ArchDescriptor(50, 8, 1, ("mamba1",), 4, (64,)).validate()
    with pytest.raises(ConfigError, match="n_heads"):
        ArchDescriptor(50, 9, 1, ("transformer",), 4, (32,), n_heads=2).validate()


def test_analytic_counts_match_allocation():
    for variant in ("mamba1", "mamba2"):
        desc = tiny_desc(variant=variant)
        m = Model.build(desc, 0)
        assert m.live_param_count() == md.descriptor_param_count(desc)
        assert m.prune_ratio() == 0.0
        # per-block analytic vs actual tensors
        for i, b in enumerate(m.blocks):
            if isinstance(b, md.MambaBlock):
                actual = sum(t.data.size for t in b.shell_tensors().values()) \
                    + sum(t.data.size for t in b.ssm.tensors().values())
            else:
                actual = sum(t.data.size for t in b.mha_tensors().values()) \
                    + sum(t.data.size for t in b.mlp_tensors().values())
            assert actual == md.block_param_count(desc, i), f"block {i}"


def test_registry_partitions_all_tensors():
    m = Model.build(tiny_desc(), 1)
    seen = {}
    groups = []
    for b in m.blocks:
        if isinstance(b, md.MambaBlock):
            groups += [b.shell_tensors(), b.ssm.tensors()]
        else:
            groups += [b.mha_tensors(), b.mlp_tensors()]
    groups += [m.embedding.tensors(), m.final_norm.tensors(), m.head.tensors()]
    for g in groups:
        for name in g:
            assert name not in seen, f"{name} owned twice"
            seen[name] = True
    assert set(seen) == set(m.named_tensors())


def test_structures_listing_shape():
    m = Model.build(tiny_desc(), 1)
    rows = [(s.kind, s.block) for s in m.structures()]
    assert rows == [("mamba_block", 0), ("ssm", 0),
                    ("transformer_block", 1), ("mha", 1), ("mlp", 1),
                    ("mamba_block", 2), ("ssm", 2),
                    ("mamba_block", 3), ("ssm", 3)]
    assert all(s.alive for s in m.structures())
    tb = [s for s in m.structures() if s.kind == "transformer_block"][0]
    assert tb.param_count == 0  # branches own the params


# -- forward ----------------------------------------------------------------

def test_forward_shape_and_determinism():
    desc = tiny_desc()
    m = Model.build(desc, 2)
    toks = tokens_for(desc, np.random.default_rng(0))
    a = m.forward(toks).data
    b = m.forward(toks).data
    assert a.shape == (2, 9, desc.vocab)
    assert a.tobytes() == b.tobytes()


def test_forward_validates_tokens():
    desc = tiny_desc()
    m = Model.build(desc, 2)
    bad = np.array([[1, 2], [3, 99]])
    with pytest.raises(TokenError) as e:
        m.forward(bad)
    assert "99" in str(e.value) and "(1, 1)" in str(e.value)


def test_resume_from_any_block_matches_forward():
    desc = tiny_desc()
    m = Model.build(desc, 13)
    m.remove("mamba_block", 2)
    m.remove("ssm", 3)
    toks = tokens_for(desc, np.random.default_rng(13))
    want = m.forward(toks).data.tobytes()
    xs = m.block_inputs(toks, len(m.blocks))
    assert len(xs) == len(m.blocks) + 1
    assert xs[2] is xs[3]  # dead block 2 hands its input on
    for i, x in enumerate(xs):
        assert m.resume(x, i).data.tobytes() == want, i
    with pytest.raises(StateError):
        m.resume(xs[0], len(m.blocks) + 1)
    with pytest.raises(StateError):
        m.block_inputs(toks, -1)


def test_zero_out_projection_makes_removal_free():
    desc = tiny_desc()
    rng = np.random.default_rng(3)
    toks = tokens_for(desc, rng)

    m = Model.build(desc, 3)
    m.blocks[2].out.weight.data[:] = 0.0
    before = m.forward(toks).data.copy()
    m.remove("mamba_block", 2)
    after = m.forward(toks).data
    np.testing.assert_array_equal(before, after)

    m = Model.build(desc, 3)
    m.blocks[1].mha.o.weight.data[:] = 0.0
    m.blocks[1].mlp.down.weight.data[:] = 0.0
    before = m.forward(toks).data.copy()
    m.remove("transformer_block", 1)
    after = m.forward(toks).data
    np.testing.assert_array_equal(before, after)


def test_all_blocks_removed_is_position_free():
    desc = tiny_desc()
    m = Model.build(desc, 4)
    for i, b in enumerate(m.blocks):
        kind = "mamba_block" if isinstance(b, md.MambaBlock) else "transformer_block"
        m.remove(kind, i)
    toks = np.array([[5, 9, 2, 9]])
    out = m.forward(toks).data[0]
    np.testing.assert_array_equal(out[1], out[3])  # same token, same logits
    perm = np.array([[9, 2, 9, 5]])
    out2 = m.forward(perm).data[0]
    np.testing.assert_array_equal(out[0], out2[3])


def test_dead_weights_do_not_touch_forward():
    # scramble every removed structure's tensors; logits must not move
    desc = tiny_desc()
    m = Model.build(desc, 5)
    toks = tokens_for(desc, np.random.default_rng(5))
    m.remove("ssm", 0)
    m.remove("mha", 1)
    m.remove("mamba_block", 3)
    want = m.forward(toks).data.copy()
    rng = np.random.default_rng(99)
    scram = {**m.blocks[0].ssm.tensors(), **m.blocks[1].mha_tensors(),
             **m.blocks[3].shell_tensors(), **m.blocks[3].ssm.tensors()}
    for t in scram.values():
        t.data = rng.normal(size=t.data.shape).astype(np.float32)
    got = m.forward(toks).data
    np.testing.assert_array_equal(want, got)


# -- removal state machine --------------------------------------------------

def test_removal_errors():
    m = Model.build(tiny_desc(), 6)
    m.remove("ssm", 0)
    with pytest.raises(StateError, match="already removed"):
        m.remove("ssm", 0)
    m.remove("mamba_block", 0)
    with pytest.raises(StateError, match="parent"):
        m.remove("ssm", 0)  # child of a dead parent
    with pytest.raises(StateError):
        m.remove("mamba_block", 1)  # block 1 is a transformer
    with pytest.raises(ValueError, match="unknown structure kind"):
        m.remove("attention", 1)
    with pytest.raises(StateError):
        m.remove("mamba_block", 40)
    with pytest.raises(StateError):
        m.slice_mlp(0, 4)  # mamba block has no mlp
    m.remove("mlp", 1)
    with pytest.raises(StateError):
        m.slice_mlp(1, 4)  # removed mlp cannot be sliced


def test_is_effective_tracks_parents():
    m = Model.build(tiny_desc(), 6)
    assert m.is_effective("ssm", 2)
    m.remove("mamba_block", 2)
    assert not m.is_effective("ssm", 2)  # parent gone, child shadowed
    assert not m.is_effective("mamba_block", 2)
    assert m.is_effective("ssm", 0)


def test_prune_ratio_accounting():
    desc = tiny_desc()
    m = Model.build(desc, 7)
    dense = m.dense_params
    ssm_params = [s for s in m.structures() if s.kind == "ssm" and s.block == 0][0].param_count
    m.remove("ssm", 0)
    assert m.prune_ratio() == pytest.approx(ssm_params / dense, rel=1e-12)
    shell = [s for s in m.structures() if s.kind == "mamba_block" and s.block == 0][0].param_count
    m.remove("mamba_block", 0)  # child already dead; adds only the shell
    assert m.prune_ratio() == pytest.approx((ssm_params + shell) / dense, rel=1e-12)
    d = desc.d_model
    g = 8
    m.slice_mlp(1, g)
    sliced = 3 * d * g
    assert m.prune_ratio() == pytest.approx((ssm_params + shell + sliced) / dense, rel=1e-12)


# -- compaction -------------------------------------------------------------

def test_compact_matches_overlay():
    desc = tiny_desc(n_blocks=5, transformer_at=(1, 3))
    m = Model.build(desc, 8)
    toks = tokens_for(desc, np.random.default_rng(8))
    m.remove("mamba_block", 2)
    m.remove("ssm", 4)
    m.remove("mha", 3)
    m.slice_mlp(1, 8)
    want = m.forward(toks).data
    c = m.compact()
    assert c.desc.n_blocks == 4
    got = c.forward(toks).data
    assert rel_err(got, want) < 1e-6
    # sliced mlp is the compacted model's dense reference
    assert c.desc.mlp_hidden[1] == 24
    kinds = [(s.kind, s.block, s.alive) for s in c.structures()]
    assert ("mha", 2, False) in kinds  # renumbered, still flagged dead


def test_compact_without_removals_is_identity():
    desc = tiny_desc()
    m = Model.build(desc, 9)
    c = m.compact()
    toks = tokens_for(desc, np.random.default_rng(9))
    np.testing.assert_array_equal(m.forward(toks).data, c.forward(toks).data)
    assert c.desc == desc


# -- checkpoints ------------------------------------------------------------

def test_checkpoint_round_trip_bit_identical(tmp_path):
    desc = tiny_desc()
    m = Model.build(desc, 10)
    m.remove("ssm", 2)
    m.slice_mlp(1, 8)
    meta = {"note": "fixture", "val_ppl": 12.5}
    p = str(tmp_path / "m.ckpt")
    md.save_model(m, p, meta)
    m2, meta2 = md.load_model(p)
    assert meta2 == meta
    a = m.named_tensors()
    b = m2.named_tensors()
    assert set(a) == set(b)
    for name in a:
        assert a[name].data.tobytes() == b[name].data.tobytes(), name
    assert [(s.kind, s.block, s.alive) for s in m.structures()] == \
           [(s.kind, s.block, s.alive) for s in m2.structures()]
    toks = tokens_for(desc, np.random.default_rng(10))
    np.testing.assert_array_equal(m.forward(toks).data, m2.forward(toks).data)
    assert m2.prune_ratio() == pytest.approx(m.prune_ratio(), rel=1e-12)


def test_checkpoint_rejects_garbage(tmp_path):
    desc = tiny_desc()
    m = Model.build(desc, 11)
    p = str(tmp_path / "m.ckpt")
    md.save_model(m, p)
    raw = open(p, "rb").read()

    bad = str(tmp_path / "bad_magic.ckpt")
    open(bad, "wb").write(b"NOTMAGIC" + raw[8:])
    with pytest.raises(CheckpointError, match="magic"):
        md.load_model(bad)

    bad = str(tmp_path / "bad_version.ckpt")
    import struct
    open(bad, "wb").write(raw[:8] + struct.pack("<IQ", 99, 0) + raw[20:])
    with pytest.raises(CheckpointError, match="version"):
        md.load_model(bad)

    bad = str(tmp_path / "truncated.ckpt")
    open(bad, "wb").write(raw[:-64])
    with pytest.raises(CheckpointError, match="truncat"):
        md.load_model(bad)


def _rewrite_header(src, dst, edit):
    """Copy a checkpoint with its JSON header passed through edit(header)."""
    import json
    import pathlib
    import struct
    raw = pathlib.Path(src).read_bytes()
    version, hlen = struct.unpack("<IQ", raw[8:20])
    header = json.loads(raw[20:20 + hlen].decode("utf-8"))
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    pathlib.Path(dst).write_bytes(raw[:8] + struct.pack("<IQ", version, len(blob))
                                  + blob + raw[20 + hlen:])


def _load_edited(tmp_path, edit):
    m = Model.build(tiny_desc(), 12)  # mamba at 0, 2, 3; a transformer at 1
    p = str(tmp_path / "m.ckpt")
    md.save_model(m, p)
    bad = str(tmp_path / "bad.ckpt")
    _rewrite_header(p, bad, edit)
    with pytest.raises(CheckpointError) as err:
        md.load_model(bad)
    assert "\n" not in str(err.value)
    return str(err.value)


@pytest.mark.parametrize("row,match", [
    (["ssm", 4, False], "block 4"),
    (["ssm", -1, False], "block -1"),
    (["attention", 0, False], "unknown kind"),
    (["mlp_channels", 1, False], "unknown kind"),
    (["ssm", 1, False], "ssm does not fit transformer block 1"),
    (["mha", 0, False], "mha does not fit mamba1 block 0"),
    (["transformer_block", 2, False], "transformer_block does not fit mamba1"),
    (["mamba_block", 1, False], "mamba_block does not fit transformer"),
    (["ssm", 0], "kind, block, alive"),
    (["ssm", 0, "no"], "alive flag"),
], ids=["block-past-end", "negative-block", "unknown-kind", "channels-kind",
        "ssm-on-transformer", "mha-on-mamba", "transformer-on-mamba",
        "mamba-on-transformer", "short-row", "non-bool-alive"])
def test_checkpoint_rejects_structure_rows_that_do_not_fit(tmp_path, row, match):
    msg = _load_edited(tmp_path, lambda h: h["structures"].append(row))
    assert re.search(match, msg), msg


@pytest.mark.parametrize("block,hidden", [(0, 8), (1, 0), (1, 64), (1, None)],
                         ids=["width-on-mamba", "zero-width", "wider-than-built",
                              "missing-entry"])
def test_checkpoint_rejects_mlp_widths_that_do_not_fit(tmp_path, block, hidden):
    def edit(h):
        if hidden is None:
            h["mlp_hidden_now"].pop()
        else:
            h["mlp_hidden_now"][block] = hidden
    assert "mlp_hidden_now" in _load_edited(tmp_path, edit)


def test_checkpoint_rejects_header_without_structures(tmp_path):
    assert "lacks ['structures']" in _load_edited(tmp_path, lambda h: h.pop("structures"))


def test_checkpoint_header_rewrite_alone_loads(tmp_path):
    # the rewrite helper itself keeps a good checkpoint loadable
    m = Model.build(tiny_desc(), 12)
    m.remove("mha", 1)
    p = str(tmp_path / "m.ckpt")
    md.save_model(m, p)
    same = str(tmp_path / "same.ckpt")
    _rewrite_header(p, same, lambda h: None)
    m2, _ = md.load_model(same)
    assert not m2.is_effective("mha", 1)


# -- decode -----------------------------------------------------------------

@pytest.mark.parametrize("variant", ["mamba1", "mamba2"])
def test_decode_matches_batch(variant):
    desc = tiny_desc(n_blocks=5, transformer_at=(2,), variant=variant)
    m = Model.build(desc, 12)
    rng = np.random.default_rng(12)
    toks = rng.integers(0, desc.vocab, size=(2, 15))
    full = m.forward(toks).data
    sess = DecodeSession(m, capacity_hint=15)
    first = sess.prefill(toks[:, :9])
    assert rel_err(first, full[:, 8]) < 1e-5
    for t in range(9, 15):
        logits = sess.step(toks[:, t])
        assert rel_err(logits, full[:, t]) < 1e-5, f"t={t}"


def test_decode_with_dead_structures():
    desc = tiny_desc(n_blocks=5, transformer_at=(2,))
    m = Model.build(desc, 13)
    m.remove("ssm", 0)
    m.remove("mha", 2)
    m.remove("mamba_block", 3)
    rng = np.random.default_rng(13)
    toks = rng.integers(0, desc.vocab, size=(1, 12))
    full = m.forward(toks).data
    sess = DecodeSession(m)
    sess.prefill(toks[:, :6])
    for t in range(6, 12):
        logits = sess.step(toks[:, t])
        assert rel_err(logits, full[:, t]) < 1e-5


def test_decode_errors():
    desc = tiny_desc()
    m = Model.build(desc, 14)
    sess = DecodeSession(m)
    with pytest.raises(StateError, match="prefill"):
        sess.step(np.array([1, 2]))
    sess.prefill(np.array([[1, 2, 3]]))
    with pytest.raises(TokenError):
        sess.step(np.array([desc.vocab]))


def test_clone_is_independent():
    desc = tiny_desc()
    m = Model.build(desc, 15)
    c = m.clone()
    c.remove("ssm", 0)
    c.named_tensors()["blocks.0.norm.scale"].data[:] = 5.0
    assert m.is_effective("ssm", 0)
    assert m.named_tensors()["blocks.0.norm.scale"].data[0] == 1.0
