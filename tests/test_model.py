"""Registry, removal semantics, accounting, checkpoints, compaction, decode."""

import hashlib
import json
import pathlib
import random
import re
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from ssmprune import layers as ly
from ssmprune import model as md
from ssmprune import tensor as tn
from ssmprune.errors import CheckpointError, ConfigError, ShapeError, StateError, TokenError
from ssmprune.model import ArchDescriptor, DecodeSession, Model, toy_descriptor

from oracles import (frozen_attention_op, frozen_cross_entropy, frozen_scan_op, frozen_silu,
                     rel_err, tape_sum)


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
            actual = sum(t.data.size for kind in b.PARTS
                         for t in md.part_tensors(b, kind).values())
            assert actual == md.block_param_count(desc, i), f"block {i}"


def test_registry_partitions_all_tensors():
    m = Model.build(tiny_desc(), 1)
    seen, owned = {}, set()
    groups = [md.part_tensors(b, kind, f"blocks.{i}.")
              for i, b in enumerate(m.blocks) for kind in b.PARTS]
    groups += [ly.tensors(m.embedding, prefix="embedding."),
               ly.tensors(m.final_norm, prefix="final_norm."), ly.tensors(m.head, prefix="head.")]
    for g in groups:
        for name, t in g.items():
            assert name not in seen and id(t) not in owned, f"{name} owned twice"
            seen[name] = t
            owned.add(id(t))
    assert seen == m.named_tensors()


@pytest.mark.parametrize("variant", ["mamba1", "mamba2"])
def test_parts_partition_the_tensors_of_every_field(variant):
    # a field that owns tensors but no part names would be missing from the
    # registry, the parameters and the checkpoint
    m = Model.build(tiny_desc(variant=variant), 1)
    for b in m.blocks:
        named = [f for fields in b.PARTS.values() for f in fields]
        assert len(named) == len(set(named)), f"{type(b).__name__}: a field in two parts"
        assert set(named) <= set(b.__dataclass_fields__)
        owners = {f for f in b.__dataclass_fields__ if ly.tensors(b, (f,))}
        assert owners <= set(named), f"{type(b).__name__}: {owners - set(named)} in no part"
        parts = [t for kind in b.PARTS for t in md.part_tensors(b, kind).values()]
        assert len(set(map(id, parts))) == len(parts)
        assert sorted(map(id, parts)) == sorted(map(id, ly.tensors(b).values()))


def test_named_tensors_order_is_pinned():
    # the checkpoint payload's order: embedding, each block's parts in PARTS
    # order with each part's fields in order, then the final norm and head
    m = Model.build(tiny_desc(n_blocks=2, variant="mamba2"), 0)
    ssm = ["A_log", "dt_bias", "D_skip", "x_to_B.weight", "x_to_C.weight",
           "x_to_dt.weight"]
    assert list(m.named_tensors()) == (
        ["embedding.table"]
        + [f"blocks.0.{n}" for n in ("norm.scale", "in_x.weight", "in_z.weight",
                                     "conv.kernel", "inner_norm.scale", "out.weight")]
        + [f"blocks.0.ssm.{n}" for n in ssm]
        + [f"blocks.1.{n}" for n in ("norm1.scale", "mha.q.weight", "mha.k.weight",
                                     "mha.v.weight", "mha.o.weight", "norm2.scale",
                                     "mlp.up.weight", "mlp.gate.weight",
                                     "mlp.down.weight")]
        + ["final_norm.scale", "head.weight"])


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
    xs = []
    xs.append(m._run(m._embed(toks), 0, len(m.blocks), inputs=xs))
    assert len(xs) == len(m.blocks) + 1
    assert xs[2] is xs[3]  # dead block 2 hands its input on
    for i, x in enumerate(xs):
        assert m.resume(x, i).data.tobytes() == want, i
    with pytest.raises(StateError):
        m.resume(xs[0], len(m.blocks) + 1)


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
    scram = {**md.part_tensors(m.blocks[0], "ssm", "blocks.0."),
             **md.part_tensors(m.blocks[1], "mha", "blocks.1."),
             **md.part_tensors(m.blocks[3], "mamba_block", "blocks.3."),
             **md.part_tensors(m.blocks[3], "ssm", "blocks.3.")}
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


@pytest.mark.parametrize("kind", ["mamba_block", "transformer_block", "ssm", "mha", "mlp"])
@pytest.mark.parametrize("block_kind", ["mamba1", "mamba2", "transformer"])
def test_removal_follows_structures_rows(tmp_path, block_kind, kind):
    desc = tiny_desc(variant="mamba2" if block_kind == "mamba2" else "mamba1")
    i = 1 if block_kind == "transformer" else 0
    m = Model.build(desc, 16)
    parts = [s.kind for s in m.structures() if s.block == i]
    assert m.is_effective(kind, i) == (kind in parts)
    if kind not in parts:
        with pytest.raises(StateError):
            m.remove(kind, i)
        return
    m.remove(kind, i)
    # removing the parent (listed first) shadows every part; a part, only itself
    assert [m.is_effective(k, i) for k in parts] == \
           [k != kind and kind != parts[0] for k in parts]
    with pytest.raises(StateError, match="already removed"):
        m.remove(kind, i)
    if kind == parts[0]:
        for child in parts[1:]:
            with pytest.raises(StateError, match="parent"):
                m.remove(child, i)

    p = str(tmp_path / "m.ckpt")
    md.save_model(m, p)
    m2, _ = md.load_model(p)
    assert [(s.kind, s.block, s.alive) for s in m2.structures()] == \
           [(s.kind, s.block, s.alive) for s in m.structures()]
    toks = tokens_for(desc, np.random.default_rng(16))
    np.testing.assert_array_equal(m.forward(toks).data, m2.forward(toks).data)


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


def compact_case(variant, seed):
    """Overlay with a dead block, a dead ssm, a dead mha and a sliced mlp."""
    m = Model.build(tiny_desc(n_blocks=5, transformer_at=(1, 3), variant=variant), seed)
    m.remove("mamba_block", 2)
    m.remove("ssm", 4)
    m.remove("mha", 3)
    m.slice_mlp(1, 8)
    return m


@pytest.mark.parametrize("variant", ["mamba1", "mamba2"])
def test_compact_matches_overlay_to_the_byte(variant):
    m = compact_case(variant, 18)
    toks = tokens_for(m.desc, np.random.default_rng(18), B=3, T=13)
    assert m.compact().forward(toks).data.tobytes() == m.forward(toks).data.tobytes()


def test_compact_shares_nothing_with_the_overlay():
    m = compact_case("mamba2", 19)
    for t in m.named_tensors().values():
        t.grad = np.ones_like(t.data)
    names = {n: t.data.tobytes() for n, t in m.named_tensors().items()}
    flags = m.structures()
    c = m.compact()
    # c owns exactly what a fresh build of c.desc holds, minus its dead parts
    fresh = Model.build(c.desc, 0)
    for fb, cb in zip(fresh.blocks, c.blocks):
        for kind in fb.PARTS:
            setattr(fb, md.ALIVE_FLAG[kind], getattr(cb, md.ALIVE_FLAG[kind]))
    md.let_go_dead_parts(fresh.blocks)
    assert {n: t.data.shape for n, t in c.named_tensors().items()} == \
        {n: t.data.shape for n, t in fresh.named_tensors().items()}
    assert len(fresh.named_tensors()) < len(Model.build(c.desc, 0).named_tensors())
    assert all(t.grad is None for t in c.named_tensors().values())
    assert not set(map(id, c.named_tensors().values())) & \
        set(map(id, m.named_tensors().values()))
    for t in c.named_tensors().values():
        t.data[...] = 7.0
    for b in c.blocks:
        for kind in b.PARTS:
            setattr(b, md.ALIVE_FLAG[kind], not getattr(b, md.ALIVE_FLAG[kind]))
    assert {n: t.data.tobytes() for n, t in m.named_tensors().items()} == names
    assert list(m.named_tensors()) == list(names)
    assert m.structures() == flags
    assert all(t.grad is not None for t in m.named_tensors().values())


# -- checkpoints ------------------------------------------------------------

BODY = len(md.MAGIC) + md.PREFIX.size  # where the crc-covered bytes start


def _live_bytes(m):
    return {n: t.data.tobytes() for n, t in m._tensors(live_only=True).items()}


def test_checkpoint_round_trip_bit_identical(tmp_path):
    desc = tiny_desc()
    m = Model.build(desc, 10)
    m.remove("ssm", 2)
    m.slice_mlp(1, 8)
    meta = {"note": "fixture", "val_ppl": 12.5}
    p = tmp_path / "m.ckpt"
    md.save_model(m, str(p), meta)
    m2, meta2 = md.load_model(str(p))
    assert meta2 == meta
    assert list(_live_bytes(m2)) == list(_live_bytes(m))
    assert _live_bytes(m2) == _live_bytes(m)
    assert [(s.kind, s.block, s.alive) for s in m.structures()] == \
           [(s.kind, s.block, s.alive) for s in m2.structures()]
    toks = tokens_for(desc, np.random.default_rng(10))
    np.testing.assert_array_equal(m.forward(toks).data, m2.forward(toks).data)
    assert m2.prune_ratio() == pytest.approx(m.prune_ratio(), rel=1e-12)
    again = tmp_path / "again.ckpt"
    md.save_model(m2, str(again), meta2)
    assert again.read_bytes() == p.read_bytes()


def test_checkpoint_loads_without_drawing(tmp_path, monkeypatch):
    # mamba2 draws its A_log too; load builds the skeleton with no rng at all
    desc = tiny_desc(variant="mamba2")
    m = Model.build(desc, 21)
    m.remove("mha", 1)
    m.slice_mlp(1, 8)
    p = str(tmp_path / "m.ckpt")
    md.save_model(m, p)
    toks = tokens_for(desc, np.random.default_rng(21))

    def no_draws(*args, **kwargs):
        raise AssertionError("load_model asked for a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # undrawn memory is never computed on
        m2, _ = md.load_model(p)
    assert list(_live_bytes(m2)) == list(_live_bytes(m))
    assert _live_bytes(m2) == _live_bytes(m)
    assert m2.forward(toks).data.tobytes() == m.forward(toks).data.tobytes()


@pytest.mark.parametrize("variant", ["mamba1", "mamba2"])
def test_loaded_and_compacted_models_own_only_what_runs(tmp_path, variant):
    m = compact_case(variant, 22)
    m.remove("mlp", 1)  # sliced, then removed
    overlay_names = list(m.named_tensors())
    p = str(tmp_path / "m.ckpt")
    md.save_model(m, p)
    loaded, _ = md.load_model(p)
    for model in (loaded, m.compact(), loaded.compact()):
        assert list(model.named_tensors().items()) == \
            list(model._tensors(live_only=True).items())
        for i, b in enumerate(model.blocks):
            for kind, fields in b.PARTS.items():
                if not model.is_effective(kind, i):
                    assert all(getattr(b, f) is None for f in fields), (i, kind)
    assert list(loaded.named_tensors()) == list(m._tensors(live_only=True))
    # the in-memory overlay keeps every dead tensor
    assert list(m.named_tensors()) == overlay_names
    assert len(overlay_names) > len(loaded.named_tensors())
    toks = tokens_for(m.desc, np.random.default_rng(22))
    want = m.forward(toks).data.tobytes()
    assert loaded.forward(toks).data.tobytes() == want
    assert loaded.compact().forward(toks).data.tobytes() == want


# sha256 of save_model's bytes for naming_case's models, so that a change to
# a tensor's name, its order or its payload shows; a reload re-saves the same
# bytes
NAMED_SHA256 = {
    ("mamba1", "built"): "b25f42ac9612722bcd84fb7793bee139c9cd389779061f710d674d64ef840fe0",
    ("mamba1", "overlay"): "beaadeb9f0e05e738e6c3b8e6b26ced500c51a7cd917f4db6860081bf122de1b",
    ("mamba1", "compacted"): "8a0775cf72d63459dcd2d79585559fa27fa639772ba40b7baa26a53e429e183b",
    ("mamba2", "built"): "4b181f701b1acacca6de52ab5d3825cb2e120bd9583afed30d7092a6162bdbd1",
    ("mamba2", "overlay"): "890626adcda56e7ffa4bd6a11e1f0cb2711cfa8f28c673e57b0ecc6bc5f1e62c",
    ("mamba2", "compacted"): "b04c67b8f4ca02d2f7e696359b444950d5b7c5b022bfdbebf24a5734302958cb",
}


def naming_case(variant):
    """-> {"built", "overlay", "compacted"}: an 8-block hybrid; the same
    build with an mlp slice and removals of every kind, a shadowed ssm among
    them; and its compaction."""
    desc = toy_descriptor(n_blocks=8, variant=variant, transformer_at=(1, 4, 6), vocab=11,
                          d_model=8, d_state=4, mlp_hidden=12, n_heads=2)
    ov = Model.build(desc, 5)
    ov.slice_mlp(1, 5)
    for kind, i in (("mha", 1), ("ssm", 0), ("mamba_block", 2), ("transformer_block", 4),
                    ("mlp", 6), ("ssm", 3), ("mamba_block", 3)):
        ov.remove(kind, i)
    return {"built": Model.build(desc, 5), "overlay": ov, "compacted": ov.compact()}


def _at_path(m, name):
    """The object at name's dotted field path from m; "blocks.i" indexes
    the block list."""
    o = m
    for f in name.split("."):
        o = o[int(f)] if isinstance(o, list) else getattr(o, f)
    return o


def _parts_rank(m, name):
    """Where name falls in PARTS order: embedding, then each block's part
    fields in PARTS order, then the final norm and the head."""
    top, *rest = name.split(".")
    if top != "blocks":
        return (("embedding", "blocks", "final_norm", "head").index(top),)
    b = m.blocks[int(rest[0])]
    return (1, int(rest[0]), [f for fs in b.PARTS.values() for f in fs].index(rest[1]))


@pytest.mark.parametrize("variant", ["mamba1", "mamba2"])
def test_tensor_names_are_field_paths_in_parts_order(tmp_path, variant):
    # built, overlay, compacted and a load of each: every key of
    # named_tensors() leads along its field path to the very tensor it maps
    # to, the keys run in PARTS order, and a save writes the pinned bytes
    for case, m in naming_case(variant).items():
        p = tmp_path / f"{case}.ckpt"
        md.save_model(m, str(p))
        loaded, _ = md.load_model(str(p))
        again = tmp_path / f"{case}-again.ckpt"
        md.save_model(loaded, str(again))
        for model, path in ((m, p), (loaded, again)):
            named = model.named_tensors()
            assert named, case
            for name, t in named.items():
                assert _at_path(model, name) is t, (case, name)
            ranks = [_parts_rank(model, n) for n in named]
            assert ranks == sorted(ranks), case
            assert hashlib.sha256(path.read_bytes()).hexdigest() == \
                NAMED_SHA256[variant, case], (case, path.name)


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
    open(bad, "wb").write(raw[:8] + struct.pack("<IQ", 99, 0) + raw[20:])
    with pytest.raises(CheckpointError, match="version"):
        md.load_model(bad)

    bad = str(tmp_path / "truncated.ckpt")
    open(bad, "wb").write(raw[:-64])
    with pytest.raises(CheckpointError, match="truncat"):
        md.load_model(bad)


def test_checkpoint_refuses_version_1(tmp_path):
    # version 1's prefix was <IQ, no crc; its header held structures rows
    header = {"descriptor": {}, "structures": [], "mlp_hidden_now": [], "tensors": [],
              "meta": {}}
    blob = json.dumps(header).encode()
    p = tmp_path / "v1.ckpt"
    p.write_bytes(md.MAGIC + struct.pack("<IQ", 1, len(blob)) + blob + bytes(64))
    with pytest.raises(CheckpointError) as err:
        md.load_model(str(p))
    assert str(err.value) == f"{p}: version 1, expected 2"


def _pruned():
    """mamba1 at 0 and 3, transformers at 1 and 2: ssm 0 and mlp 1 removed,
    mlp 2 sliced to 24 of 32 channels, block 3 removed."""
    m = Model.build(tiny_desc(transformer_at=(1, 2)), 12)
    m.remove("ssm", 0)
    m.remove("mlp", 1)
    m.slice_mlp(2, 8)
    m.remove("mamba_block", 3)
    return m


def test_checkpoint_rejects_flipped_bytes_by_crc(tmp_path):
    # a header edit that still parses and fits (another divisor of d_model),
    # and one flipped payload bit, both fail the crc
    m = _pruned()
    p = tmp_path / "m.ckpt"
    md.save_model(m, str(p))
    raw = p.read_bytes()
    assert raw.count(b'"n_heads": 2') == 1
    bad = tmp_path / "bad.ckpt"
    for edited in (raw.replace(b'"n_heads": 2', b'"n_heads": 4'),
                   raw[:-5] + bytes([raw[-5] ^ 1]) + raw[-4:]):
        bad.write_bytes(edited)
        with pytest.raises(CheckpointError, match="crc32 .* expected") as err:
            md.load_model(str(bad))
        assert "\n" not in str(err.value)


def test_checkpoint_byte_fuzz_fails_in_one_line(tmp_path):
    # seeded single-byte flips over every region, truncations and an
    # appended byte: each is a CheckpointError of one line, nothing else
    m = _pruned()
    p = tmp_path / "m.ckpt"
    md.save_model(m, str(p))
    raw = p.read_bytes()
    hlen = md.PREFIX.unpack(raw[len(md.MAGIC):BODY])[1]
    rng = random.Random(2501)
    regions = [(0, len(md.MAGIC)), (len(md.MAGIC), BODY), (BODY, BODY + hlen),
               (BODY + hlen, len(raw))]
    cases = []
    for lo, hi in regions:
        for _ in range(40):
            k = rng.randrange(lo, hi)
            cases.append(raw[:k] + bytes([raw[k] ^ (1 << rng.randrange(8))]) + raw[k + 1:])
    cases += [raw[:rng.randrange(len(raw))] for _ in range(39)]
    cases.append(raw + bytes([rng.randrange(256)]))
    bad = tmp_path / "bad.ckpt"
    for case in cases:
        bad.write_bytes(case)
        with pytest.raises(CheckpointError) as err:
            md.load_model(str(bad))
        assert "\n" not in str(err.value)


def _rewrite_header(src, dst, edit, extra=b""):
    """Copy a checkpoint with its JSON header passed through edit(header)
    and extra appended to its payload, under a recomputed crc32."""
    raw = pathlib.Path(src).read_bytes()
    version, hlen, _ = md.PREFIX.unpack(raw[len(md.MAGIC):BODY])
    header = json.loads(raw[BODY:BODY + hlen].decode("utf-8"))
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    body = blob + raw[BODY + hlen:] + extra
    pathlib.Path(dst).write_bytes(raw[:len(md.MAGIC)]
                                  + md.PREFIX.pack(version, len(blob), zlib.crc32(body)) + body)


def _load_edited(tmp_path, edit, m=None):
    if m is None:
        m = Model.build(tiny_desc(), 12)  # mamba at 0, 2, 3; a transformer at 1
    p = str(tmp_path / "m.ckpt")
    md.save_model(m, p)
    bad = str(tmp_path / "bad.ckpt")
    _rewrite_header(p, bad, edit)
    with pytest.raises(CheckpointError) as err:
        md.load_model(bad)
    assert "\n" not in str(err.value)
    return str(err.value)


def _append(*rows):
    def edit(h):
        h["removed"] += list(rows)
    return edit


# on _pruned(): ["ssm", 0], ["mlp", 1], ["mlp_channels", 2, 8], ["mamba_block", 3]
@pytest.mark.parametrize("row,match", [
    (["ssm", 4], "no block 4; model has 4"),
    (["ssm", -1], "no block -1"),
    (["attention", 0], "unknown structure kind 'attention'"),
    (["mlp_channels", 2], "unknown structure kind 'mlp_channels'"),
    (["ssm", 1], "block 1 has no ssm"),
    (["mha", 0], "block 0 has no mha"),
    (["transformer_block", 0], "block 0 has no transformer_block"),
    (["mamba_block", 1], "block 1 has no mamba_block"),
    (["ssm"], r"is not \[kind, block\]"),
    (["ssm", 0, "no"], r"is not \[kind, block\]"),
    (["ssm", 0, False], r"is not \[kind, block\]"),
    (["ssm", True], r"is not \[kind, block\]"),
    ("ssm 0", r"is not \[kind, block\]"),
    (["ssm", 3], "ssm 3: parent block already removed"),
    (["mlp_channels", 1, 8], "block 1 has no live mlp to slice"),
    (["mlp_channels", 2, "8"], r"is not \[kind, block\]"),
], ids=["block-past-end", "negative-block", "unknown-kind", "channels-kind",
        "ssm-on-transformer", "mha-on-mamba", "transformer-on-mamba",
        "mamba-on-transformer", "short-row", "non-bool-alive", "v1-row", "bool-block",
        "string-row", "child-after-parent", "slice-dead-mlp",
        "string-g"])
def test_checkpoint_rejects_structure_rows_that_do_not_fit(tmp_path, row, match):
    msg = _load_edited(tmp_path, _append(row), _pruned())
    assert re.search(match, msg), msg
    assert f"removed row {row!r}" in msg


def _drop(row):
    def edit(h):
        h["removed"].remove(row)
    return edit


@pytest.mark.parametrize("edit,match", [
    (_append(["mlp_channels", 0, 8]), "block 0 has no live mlp to slice"),
    (_append(["mlp_channels", 2, 24]), "cannot drop 24 of 24 channels"),
    (_append(["mlp_channels", 2, -8]), "cannot drop -8 of 24 channels"),
    (_drop(["mlp_channels", 2, 8]),
     r"blocks\.2\.mlp\.up\.weight has shape \(24, 16\), expected \(32, 16\)"),
    (_append(["mlp_channels", 2, 0]), "cannot drop 0 of 24 channels"),
], ids=["width-on-mamba", "zero-width", "wider-than-built", "missing-entry", "zero-g"])
def test_checkpoint_rejects_mlp_widths_that_do_not_fit(tmp_path, edit, match):
    msg = _load_edited(tmp_path, edit, _pruned())
    assert re.search(match, msg), msg


@pytest.mark.parametrize("edit,match", [
    (lambda h: h["removed"].clear(), r"tensor set mismatch \(missing \[\], extra \['blocks"),
    (_drop(["ssm", 0]), r"tensor set mismatch \(missing \[\], extra \['blocks\.0\.ssm\.A_log'"),
    (_drop(["mlp", 1]), r"tensor set mismatch \(missing \[\], extra \['blocks\.1\.mlp\.down"),
    (_append(["mha", 2]), r"tensor set mismatch \(missing \['blocks\.2\.mha\.k\.weight'"),
    (_append(["transformer_block", 1]),
     r"tensor set mismatch \(missing \['blocks\.1\.mha\.k\.weight'"),
    (_append(["mlp_channels", 2, 8]),
     r"blocks\.2\.mlp\.up\.weight has shape \(24, 16\), expected \(16, 16\)"),
    (_append(["ssm", 0]), "removed row \\['ssm', 0\\]: ssm 0 already removed"),
    (_append(["mamba_block", 3]), "mamba_block 3 already removed"),
], ids=["no-rows", "missing-ssm", "missing-mlp", "added-mha", "added-parent",
        "contradicting-duplicate", "same-duplicate", "duplicate-parent"])
def test_checkpoint_rejects_missing_or_duplicated_structure_rows(tmp_path, edit, match):
    # a row added or dropped without its tensors no longer fits the table
    msg = _load_edited(tmp_path, edit, _pruned())
    assert re.search(match, msg), msg


def test_checkpoint_rejects_header_without_removed(tmp_path):
    assert "lacks ['removed']" in _load_edited(tmp_path, lambda h: h.pop("removed"))
    assert "removed {} is not a list" in _load_edited(tmp_path, lambda h: h.update(removed={}))


def _set(section, key, value):
    def edit(h):
        h[section][key] = value
    return edit


@pytest.mark.parametrize("edit,match", [
    (lambda h: h["descriptor"].pop("vocab"), r"descriptor: lacks \['vocab'\]"),
    (lambda h: h.update(descriptor=[1, 2]), r"descriptor: \[1, 2\] is not an object"),
    (_set("descriptor", "block_kinds", 5), "block_kinds 5 is not a list of strings"),
    (_set("descriptor", "mlp_hidden", [0, "8", 0, 0]), "mlp_hidden .* not a list of integers"),
    (_set("descriptor", "d_model", "x"), "d_model 'x' is not an integer"),
    (_set("descriptor", "n_heads", 0), "n_heads"),
    (lambda h: h["tensors"].append(["a"]), r"tensors row \['a'\] is not \[name, shape\]"),
    (lambda h: h["tensors"].append(["a", [2, "3"]]), r"tensors row .* is not \[name, shape\]"),
    (lambda h: h.update(tensors={}), r"tensors \{\} is not a list"),
    (lambda h: h.update(meta=7), "meta 7 is not an object"),
], ids=["no-vocab", "list-descriptor", "int-block-kinds", "str-width", "str-d-model",
        "zero-heads", "short-tensor-row", "str-dim", "dict-tensors", "int-meta"])
def test_checkpoint_rejects_malformed_header_fields(tmp_path, edit, match):
    msg = _load_edited(tmp_path, edit)
    assert re.search(match, msg), msg


def test_checkpoint_rejects_a_tensor_named_twice(tmp_path):
    # the repeated row comes with its own payload slice, so every size adds up
    m = Model.build(tiny_desc(), 12)
    p = tmp_path / "m.ckpt"
    md.save_model(m, str(p))
    name, last = list(m.named_tensors().items())[-1]
    bad = tmp_path / "twice.ckpt"
    _rewrite_header(p, bad, lambda h: h["tensors"].append([name, list(last.data.shape)]),
                    extra=p.read_bytes()[-4 * last.data.size:])
    with pytest.raises(CheckpointError, match=f"name {name} twice") as err:
        md.load_model(str(bad))
    assert "\n" not in str(err.value)


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


# removal sets on tiny_desc(n_blocks=5, transformer_at=(2,)); ints after a
# kind are its block and, for mlp_channels, the channels sliced off
DEAD_SETS = {
    "ssm-mha-block": (("ssm", 0), ("mha", 2), ("mamba_block", 3)),
    "mlp": (("ssm", 4), ("mlp", 2), ("mamba_block", 1)),
    "mlp_channels": (("mlp_channels", 2, 20), ("ssm", 3)),
}


def dead_model(removals, seed=13):
    m = Model.build(tiny_desc(n_blocks=5, transformer_at=(2,)), seed)
    for kind, i, *g in removals:
        if kind == "mlp_channels":
            m.slice_mlp(i, *g)
        else:
            m.remove(kind, i)
    return m


def test_decode_with_dead_structures():
    for name, removals in DEAD_SETS.items():
        m = dead_model(removals)
        rng = np.random.default_rng(13)
        toks = rng.integers(0, m.desc.vocab, size=(1, 12))
        full = m.forward(toks).data
        sess = DecodeSession(m)
        sess.prefill(toks[:, :6])
        for t in range(6, 12):
            logits = sess.step(toks[:, t])
            assert rel_err(logits, full[:, t]) < 1e-5, f"{name} t={t}"


@pytest.mark.parametrize("case", ["mamba1", "mamba2", *DEAD_SETS])
def test_prefill_equals_forward_last_position_to_the_byte(case):
    if case in DEAD_SETS:
        m = dead_model(DEAD_SETS[case], seed=16)
    else:
        m = Model.build(tiny_desc(n_blocks=5, transformer_at=(2,), variant=case), 16)
    toks = np.random.default_rng(16).integers(0, m.desc.vocab, size=(2, 11))
    got = DecodeSession(m).prefill(toks)
    assert got.tobytes() == m.forward(toks).data[:, -1].tobytes()


@pytest.mark.parametrize("case", ["mamba1", "mamba2", *DEAD_SETS])
def test_decode_equals_forward_at_every_position_to_the_byte(case):
    if case in DEAD_SETS:
        m = dead_model(DEAD_SETS[case], seed=20)
    else:
        m = Model.build(tiny_desc(n_blocks=5, transformer_at=(2,), variant=case), 20)
    toks = np.random.default_rng(20).integers(0, m.desc.vocab, size=(2, 12))
    full = m.forward(toks).data
    sess = DecodeSession(m, capacity_hint=2)  # the key/value buffers grow
    assert sess.prefill(toks[:, :1]).tobytes() == full[:, 0].tobytes()
    for t in range(1, 12):
        assert sess.step(toks[:, t]).tobytes() == full[:, t].tobytes(), f"t={t}"


def test_decode_grows_kv_buffers_past_the_capacity_hint():
    # a live mha and a hint far below the decoded length: the key/value
    # buffers fill and grow several times, and decode still matches batch
    m = Model.build(tiny_desc(n_blocks=3, transformer_at=(0, 2)), 17)
    toks = np.random.default_rng(17).integers(0, m.desc.vocab, size=(2, 30))
    full = m.forward(toks).data
    sess = DecodeSession(m, capacity_hint=2)
    sess.prefill(toks[:, :3])
    caps = {sess._state[0][0].shape[2]}
    for t in range(3, 30):
        logits = sess.step(toks[:, t])
        assert rel_err(logits, full[:, t]) < 1e-5, f"t={t}"
        caps.add(sess._state[0][0].shape[2])
    assert min(caps) == 4 and len(caps) > 2 and sess._state[0][2] == 30


# one weight of each kind a decode session prepares an array from: the
# float64 copy of a linear weight, an rmsnorm scale, dt_bias and D_skip, and
# a scan's -exp(A_log)
CAST_WEIGHTS = ("blocks.0.in_x.weight", "blocks.0.norm.scale", "blocks.0.ssm.dt_bias",
                "blocks.0.ssm.D_skip", "blocks.0.ssm.x_to_dt.weight", "blocks.0.ssm.A_log",
                "blocks.1.mha.q.weight", "blocks.1.mlp.down.weight",
                "final_norm.scale", "head.weight")


@pytest.mark.parametrize("name", CAST_WEIGHTS)
def test_weight_edit_shows_in_the_next_prefill(name):
    # the arrays a session prepares are read at its prefill: an edit in
    # place reaches a new session, and the old one once it prefills again
    m = Model.build(tiny_desc(), 22)
    toks = np.random.default_rng(22).integers(0, m.desc.vocab, size=(2, 7))
    old = DecodeSession(m)
    before = old.prefill(toks[:, :6])
    old.step(toks[:, 6])
    m.named_tensors()[name].data *= 1.5
    full = m.forward(toks).data
    for sess in (DecodeSession(m), old):
        got = sess.prefill(toks[:, :6])
        assert got.tobytes() == full[:, 5].tobytes()
        assert got.tobytes() != before.tobytes()
        assert sess.step(toks[:, 6]).tobytes() == full[:, 6].tobytes()


@pytest.mark.parametrize("hint", [10.0, "8", -1, True, None, 2.5])
def test_bad_capacity_hint_is_one_config_error(hint):
    # refused at construction, before a float reaches np.zeros at prefill
    m = Model.build(tiny_desc(), 14)
    with pytest.raises(ConfigError, match=re.escape(repr(hint))) as e:
        DecodeSession(m, capacity_hint=hint)
    assert "\n" not in str(e.value)


def test_capacity_hint_takes_a_numpy_integer():
    m = Model.build(tiny_desc(), 14)
    toks = np.random.default_rng(14).integers(0, m.desc.vocab, size=(1, 4))
    assert DecodeSession(m, capacity_hint=np.int64(9)).prefill(toks).shape == (1, m.desc.vocab)


@pytest.mark.parametrize("shape", [(1, 0), (0, 3)])
def test_empty_prompt_is_one_shape_error(shape):
    m = Model.build(tiny_desc(), 14)
    for run in (m.forward, DecodeSession(m).prefill):
        with pytest.raises(ShapeError, match=re.escape(str(shape))) as e:
            run(np.zeros(shape, dtype=np.int64))
        assert "\n" not in str(e.value)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_float_tokens_are_one_token_error(dtype):
    m = Model.build(tiny_desc(), 14)
    sess = DecodeSession(m)
    for run, tokens in ((m.forward, np.ones((1, 3), dtype)),
                        (sess.prefill, np.ones((1, 3), dtype)),
                        (sess.step, np.ones(1, dtype))):
        with pytest.raises(TokenError, match=f"dtype {np.dtype(dtype)}") as e:
            run(tokens)
        assert "\n" not in str(e.value)
        sess.prefill(np.ones((1, 3), dtype=np.int64))  # so step has a prefill


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


# -- what the tape keeps ----------------------------------------------------

def _loss_and_grads(m, tokens, targets, loss_fn):
    params = m._tensors(live_only=True)
    for t in params.values():
        t.zero_grad()
    with tn.tape() as g:
        loss = loss_fn(m.forward(tokens), targets)
        g.backward(loss)
    return loss.hi, {n: t.grad.tobytes() for n, t in params.items() if t.grad is not None}


@pytest.mark.parametrize("variant", ["mamba1", "mamba2"])
@pytest.mark.parametrize("T", [1, 9])
def test_grads_match_frozen_backwards_on_a_pruned_model(monkeypatch, variant, T):
    # silu, attention, cross-entropy and the scan recompute in their
    # backwards what the frozen ops keep from the forward; a model with a
    # dead scan, a dead mlp, a dead mha and a dead block gets the same grads
    # to the byte
    m = Model.build(tiny_desc(n_blocks=5, transformer_at=(1, 3), variant=variant), 16)
    for kind, block in (("ssm", 0), ("mlp", 1), ("mha", 3), ("mamba_block", 4)):
        m.remove(kind, block)
    rng = np.random.default_rng(16)
    tokens, targets = tokens_for(m.desc, rng, B=2, T=T), tokens_for(m.desc, rng, B=2, T=T)
    got = _loss_and_grads(m, tokens, targets, ly.cross_entropy)
    monkeypatch.setattr(tn, "silu", frozen_silu)
    monkeypatch.setattr(ly, "attention", frozen_attention_op)
    monkeypatch.setattr(md, "selective_scan", frozen_scan_op)
    want = _loss_and_grads(m, tokens, targets, frozen_cross_entropy)
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys()
    for name in want[1]:
        assert got[1][name] == want[1][name], f"grad of {name} differs"


def test_taped_blocks_hold_no_rebuildable_arrays():
    # Bytes one taped block holds after its forward, in units of one
    # (B, T, d) float32 activation. A checkpointed block keeps its output
    # (1 unit) and what the scan and attention hand over: the scan's y (2
    # units at c = 2d) and its segment starts (one float64 (B, c, N) state
    # here, 1 unit), and attention's y (1 unit); 4.3 and 2.1 units with
    # the node itself. Recorded op by op, the outputs the backward reads
    # came to 15 units in a mamba block and 18 in a transformer block
    # (hidden 4d), 16.4 and 18.2 with the scan's starts; keeping the scan's
    # dtp, B and C and attention's float64 q, k, v and ctx too, to 19.4 and
    # 26.3.
    B, T, d = 4, 64, 32
    m = Model.build(tiny_desc(n_blocks=2, transformer_at=(1,), d_model=d, d_state=16,
                              mlp_hidden=4 * d, n_heads=4), 17)
    x = tn.Tensor(np.random.default_rng(17).normal(size=(B, T, d)), requires_grad=True)
    unit = 4 * B * T * d
    for blk, bound in zip(m.blocks, (5, 3)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with tn.tape():
                out = blk.forward(x)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.data.shape == (B, T, d)
        assert held < bound * unit, f"{type(blk).__name__} holds {held / unit:.1f} units"


def _block_grads(blk, x, w, forward):
    """Bytes of the grads of sum(forward(x) * w) by x and by every tensor
    blk owns (None where none reached it), by "x" and field path, and the
    graph's node count after the forward."""
    owned = {"x": x, **ly.tensors(blk)}
    for t in owned.values():
        t.zero_grad()
    with tn.tape() as g:
        out = forward(x)
        nodes = len(g)
        g.backward(tape_sum(tn.mul(out, w)))
    return nodes, {n: None if t.grad is None else t.grad.tobytes() for n, t in owned.items()}


@pytest.mark.parametrize("kind,dead", [("mamba1", None), ("mamba1", "ssm"), ("mamba2", None),
                                       ("mamba2", "ssm"), ("transformer", None),
                                       ("transformer", "mha"), ("transformer", "mlp")])
@pytest.mark.parametrize("T", [1, 9])
@pytest.mark.parametrize("x_kind", ["leaf", "constant", "produced"])
def test_checkpointed_block_grads_equal_the_body_recorded_op_by_op(kind, dead, T, x_kind):
    # The taped forward records one node; its replay must give x and every
    # live parameter the bytes of the body recorded op by op. x is a leaf
    # that needs a grad, one that does not, or a produced tensor.
    m = Model.build(tiny_desc(n_blocks=2, transformer_at=(1,),
                              variant="mamba1" if kind == "transformer" else kind), 18)
    i = 1 if kind == "transformer" else 0
    blk = m.blocks[i]
    if dead is not None:
        m.remove(dead, i)
    state = None if kind == "transformer" else (None, None)
    rng = np.random.default_rng(18)
    x0 = tn.Tensor(rng.normal(size=(2, T, m.desc.d_model)), requires_grad=x_kind != "constant")
    w = tn.Tensor(rng.normal(size=x0.data.shape))
    lift = (lambda x: tn.add(x, tn.Tensor(np.zeros_like(x.data)))) if x_kind == "produced" \
        else (lambda x: x)
    nodes, got = _block_grads(blk, x0, w, lambda x: blk.forward(lift(x)))
    want_nodes, want = _block_grads(blk, x0, w,
                                    lambda x: blk._body(md.TAPE, lift(x), state)[0])
    assert nodes == (2 if x_kind == "produced" else 1) < want_nodes
    assert got == want
    live = set(m.parameters())
    dead_names = {n for n, t in ly.tensors(blk).items() if t not in live}
    assert all(got[n] is None for n in dead_names)
    assert (got["x"] is None) == (x_kind == "constant")


@pytest.mark.parametrize("kind", ["mamba1", "transformer"])
def test_a_body_that_raises_in_its_replay_leaves_the_tape_as_it_was(monkeypatch, kind):
    m = Model.build(tiny_desc(n_blocks=2, transformer_at=(1,)), 19)
    blk = m.blocks[1 if kind == "transformer" else 0]
    x = tn.Tensor(np.random.default_rng(19).normal(size=(2, 5, m.desc.d_model)),
                  requires_grad=True)

    def broken(x, scale):
        raise ShapeError("rmsnorm broke in the replay")

    with tn.tape() as g:
        loss = tape_sum(blk.forward(x))
        monkeypatch.setattr(ly, "rmsnorm", broken)
        with pytest.raises(ShapeError, match="replay"):
            g.backward(loss)
        assert tn.active_graph() is g and tn.taping()
    assert tn.active_graph() is None and not tn.taping()
    assert tn.hand_over(lambda: "computed") == "computed"


@pytest.mark.parametrize("variant", ["mamba1", "mamba2"])
def test_untaped_mamba_block_peak_stays_bounded(variant):
    # Peak bytes of one untaped forward above its start, in units of one
    # (B, T, c) float32 activation at the block's inner width c = 2d. The
    # block lets each activation go after its last reader, the scan drops
    # its (B, T, c) step sizes once the chunk kernels hold time-major copies
    # and reads out one segment at a time: 10.7 units here, against 17.4
    # with all of them held to the end.
    B, T = 4, 128
    m = Model.build(toy_descriptor(n_blocks=1, transformer_at=(), variant=variant), 0)
    blk = m.blocks[0]
    c = blk.in_x.weight.data.shape[0]
    x = tn.Tensor(np.random.default_rng(5).normal(size=(B, T, m.desc.d_model))
                  .astype(np.float32))
    unit = 4 * B * T * c
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = blk.forward(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.data.shape == x.data.shape
    assert peak < 12 * unit, f"peak {peak / unit:.1f} units"
