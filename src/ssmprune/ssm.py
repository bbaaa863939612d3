"""Selective scan: input-dependent gating of a diagonal linear recurrence.

Two parameterizations share one scan:
  "s6"  -- diagonal decay, A_log (c, N): every channel/state pair has its own rate.
  "ssd" -- scalar decay, A_log (c,): one rate per channel, broadcast over the
           N state columns. Equivalent to "s6" with rows tied.

State update per token: h = exp(dt*A) * h + (dt*x) outer B, readout
y = h . C + D * x, with dt = softplus(x W_dt + dt_bias), B = x W_B, C = x W_C.
The carried state is float64; the readout and the backward read the per-token
states rounded to float32, and the readout contraction accumulates in float64.

`scan_f` runs the scan on arrays from a given state and returns the state
after it; `selective_scan` is its taped call from zero, a decode step its
T=1 call, which runs one step on the token's row with the weight arrays a
decode session prepared.

The scan runs time in chunks of a fixed element budget, time-major, so each
step's slice is one contiguous block. Each chunk builds its own decay
exp(dt*A) and input term (dt*x) outer B, runs the float64 recurrence over
them and reads y out at once from its states rounded to float32; the
(B, T, c, N) decay, input terms and per-token states are never whole. Under
a tape (recording, or paused for a checkpointed block's first run) the scan
also keeps the float64 state at the start of each backward segment, a few
chunks long, and no per-token state. The backward
keeps x and those starts only: it rebuilds dtp, B and C from x through
`_project`, the forward's own call, and dt and dt*x from dtp, to the same
bytes. It walks the segments in reverse: it fills one segment's
time-major float64 copies of what the chunk terms read (g, C, B, x, dt,
dt*x), recomputes the segment's states from its start state, then walks
its chunks in reverse with the decay computed there. These working arrays
are one segment long, allocated once per call, and let go with the chunk
kernels' float32 inputs before the weight-grad tail.
Chunking changes no operation or its order, so the bytes equal a
one-step-at-a-time scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ShapeError
from .layers import Linear
from .tensor import Tensor, f32, hand_over, record, sigmoid_f, softplus_f, taping

VARIANTS = ("s6", "ssd")


@dataclass(eq=False)
class SsmParams:
    """Scan parameters for one block; channels c is the block's inner width.
    The tensor fields run in checkpoint payload order."""

    variant: str
    A_log: Tensor
    dt_bias: Tensor
    D_skip: Tensor
    x_to_B: Linear
    x_to_C: Linear
    x_to_dt: Linear

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown ssm variant {self.variant!r}")
        want = (self.channels,) if self.variant == "ssd" else (self.channels, self.n_state)
        if self.A_log.data.shape != want:
            raise ShapeError(f"A_log shape {self.A_log.data.shape}, expected {want} "
                             f"for {self.variant}")

    @staticmethod
    def build(rng: Optional[np.random.Generator], variant: str, channels: int,
              n_state: int) -> "SsmParams":
        if rng is None:  # a skeleton for a checkpoint to overwrite: nothing drawn
            a_log = np.empty((channels, n_state) if variant == "s6" else channels,
                             dtype=np.float32)
            dt_bias = np.empty(channels, dtype=np.float32)
        else:
            if variant == "s6":
                # decay rates 1..N per channel, the usual structured init
                a = np.tile(np.arange(1, n_state + 1, dtype=np.float64), (channels, 1))
            else:
                a = rng.uniform(1.0, 16.0, channels)
            a_log = np.log(a)
            # softplus(dt_bias) lands uniformly in [1e-3, 1e-1]
            dt_bias = np.log(np.expm1(rng.uniform(1e-3, 1e-1, channels)))
        return SsmParams(
            variant=variant,
            A_log=Tensor(a_log, requires_grad=True),
            dt_bias=Tensor(dt_bias, requires_grad=True),
            D_skip=Tensor(np.ones(channels), requires_grad=True),
            x_to_B=Linear.build(rng, channels, n_state),
            x_to_C=Linear.build(rng, channels, n_state),
            x_to_dt=Linear.build(rng, channels, channels),
        )

    @property
    def channels(self) -> int:
        return self.dt_bias.data.shape[0]

    @property
    def n_state(self) -> int:
        return self.x_to_B.weight.data.shape[0]

    def neg_A(self) -> np.ndarray:
        """A = -exp(A_log); (c, N) for s6, (c,) for ssd. Always negative."""
        return -np.exp(self.A_log.data)


def _cast64(t: Tensor) -> np.ndarray:
    """t's data cast to float64: what the scan reads of its weights."""
    return t.data.astype(np.float64)


def _project(p: SsmParams, x: np.ndarray,
             w64: Callable[[Tensor], np.ndarray] = _cast64) -> Tuple[np.ndarray, ...]:
    """Input-dependent projections of x (..., c): dtp, B, C as float32. The
    forward computes them, and the backward computes them again from the x
    it keeps, to the same bytes; a decode token passes its (B, c) row."""
    lead = x.shape[:-1]
    c, N = p.channels, p.n_state
    x2 = x.reshape(-1, c).astype(np.float64)
    # astype keeps the product's C order: f32's contiguity pass is not needed
    dtp = (x2 @ w64(p.x_to_dt.weight).T + w64(p.dt_bias)).astype(np.float32)
    Bm = (x2 @ w64(p.x_to_B.weight).T).astype(np.float32)
    Cm = (x2 @ w64(p.x_to_C.weight).T).astype(np.float32)
    return dtp.reshape(lead + (c,)), Bm.reshape(lead + (N,)), Cm.reshape(lead + (N,))


def _steps(dtp: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The step sizes dt = softplus(dtp) and the input scale dt*x, float32.
    The forward computes them, and the backward computes them again from the
    dtp it rebuilds, to the same bytes."""
    dt = softplus_f(dtp)
    return dt, dt * x


def _decay(A: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """exp(dt * A) for A = neg_A(): (..., c, N) for s6's (c, N) A, (..., c, 1)
    for ssd's (c,) A (broadcasts later)."""
    if A.ndim == 2:
        return np.exp(dt[..., None] * A)
    return np.exp(dt * A)[..., None]


# Elements of one chunk's (L, B, c, N) terms: the scan builds its decay and
# input terms L time steps at a time so they stay in cache, never whole.
_CHUNK_ELEMS = 1 << 15
# Elements of one segment's (S, B, c, N) states. A taped scan keeps the
# float64 state at the start of each segment of S steps, a whole number of
# chunks; the backward recomputes the segment's states from it.
_SEGMENT_ELEMS = 1 << 18


def _chunk_len(B_: int, c: int, N: int) -> int:
    return max(1, _CHUNK_ELEMS // (B_ * c * N))


def _segment_len(B_: int, c: int, N: int) -> int:
    L = _chunk_len(B_, c, N)
    return L * max(1, _SEGMENT_ELEMS // (L * B_ * c * N))


def _time_major(a: np.ndarray, dtype=None) -> np.ndarray:
    """(B, T, ...) -> contiguous (T, B, ...); also its own inverse."""
    return np.asarray(a.swapaxes(0, 1), dtype=dtype, order="C")


class _Chunks:
    """One call's time-major scan inputs and the chunk buffers its kernels
    write, allocated once. Each step of a buffer is one contiguous block, so
    the recurrence runs on whole blocks of one dtype."""

    def __init__(self, A: np.ndarray, dt: np.ndarray, dtx: np.ndarray,
                 Bm: np.ndarray, L: int):
        self.A = A
        self.dt, self.dtx, self.Bm = _time_major(dt), _time_major(dtx), _time_major(Bm)
        T, B_, c = self.dt.shape
        shape = (min(L, T), B_, c, Bm.shape[-1])
        self.f32 = np.empty(shape, dtype=np.float32)      # decay argument, input term, states
        self.hc = np.empty(shape, dtype=np.float64)
        self.abar = np.empty(shape, dtype=np.float64)
        self.tmp = np.empty(shape[1:], dtype=np.float64)

    def decay(self, s: slice, out: np.ndarray) -> np.ndarray:
        """exp(dt*A) of steps s, rounded in float32, into float64 out
        (n, B, c, N); ssd's one rate per channel repeats over the N columns."""
        dt = self.dt[s]
        if self.A.ndim == 2:
            arg = np.einsum("tbc,cn->tbcn", dt, self.A, out=self.f32[:len(dt)])
        else:
            arg = (dt * self.A)[..., None]
        np.copyto(out, np.exp(arg, out=arg))
        return out

    def states(self, s: slice, h: np.ndarray, abar: np.ndarray) -> np.ndarray:
        """The float64 states of steps s from state h, with their decay abar:
        (n, B, c, N), a view of the chunk buffer valid until the next call."""
        n = len(abar)
        hc = self.hc[:n]
        # h may be the last state of the previous call, in hc: use it before
        # the input term overwrites hc
        np.multiply(abar[0], h, out=self.tmp)
        # the input term dt*x outer B, in float32
        np.copyto(hc, np.einsum("tbc,tbn->tbcn", self.dtx[s], self.Bm[s], out=self.f32[:n]))
        np.add(hc[0], self.tmp, out=hc[0])                 # h = abar*h + input term
        for i in range(1, n):
            np.multiply(abar[i], hc[i - 1], out=self.tmp)
            np.add(hc[i], self.tmp, out=hc[i])
        return hc


def scan_f(x: np.ndarray, p: SsmParams, h0: Optional[np.ndarray] = None,
           w64: Callable[[Tensor], np.ndarray] = _cast64,
           A: Optional[np.ndarray] = None):
    """Run the scan over a batch of sequences. x (B, T, c) float32, h0 the
    (B, c, N) float64 state before x (None: zeros), left unmodified. w64(t)
    is the float64 array read for weight t (the projections, dt_bias and
    D_skip), and A is -exp(A_log) as `SsmParams.neg_A` gives it (None:
    computed here); a decode session passes the copies and the A it
    prepared at prefill.

    -> (y (B, T, c) float32, the float64 state after x, and, only under a
    tape, recording or paused, the float64 states at each segment start,
    which the backward reads (None otherwise)). No call keeps the per-token states: each chunk's
    are read out at once, into a float64 buffer one segment long, and no call
    holds a whole-sequence float64 y.

    One token (T == 1, a decode step) runs one step on its (B, c) row, with
    no chunk buffers, einsum products or segment bookkeeping: the same
    operations on the same values, so the same bytes.
    """
    if x.ndim != 3 or x.shape[-1] != p.channels:
        raise ShapeError(f"selective_scan: input {x.shape}, expected (B, T, {p.channels})")
    B_, T, c = x.shape
    N = p.n_state
    if h0 is not None and h0.shape != (B_, c, N):
        raise ShapeError(f"selective_scan: state {h0.shape}, expected {(B_, c, N)}")
    if A is None:
        A = p.neg_A()
    h = np.zeros((B_, c, N), dtype=np.float64) if h0 is None else h0
    if T == 1:
        x1 = x[:, 0]
        dtp, Bm, Cm = _project(p, x1, w64)                 # (B, c), (B, N)
        dt, dtx = _steps(dtp, x1)
        hc = (dtx[:, :, None] * Bm[:, None, :]).astype(np.float64)
        hc += _decay(A, dt) * h                            # h = abar*h + input term
        y = np.einsum("bcn,bn->bc", hc.astype(np.float32), Cm, dtype=np.float64)
        y += w64(p.D_skip) * x1
        # only a tape's backward reads the segment starts: one, the state before
        return y.astype(np.float32)[:, None], hc, h[None].copy() if taping() else None
    dtp, Bm, Cm = _project(p, x, w64)
    dt, dtx = _steps(dtp, x)                               # (B,T,c)
    S = _segment_len(B_, c, N)
    # only a tape's backward reads the segment starts
    starts = np.empty((-(-T // S), B_, c, N), dtype=np.float64) if taping() else None
    L = _chunk_len(B_, c, N)
    k = _Chunks(A, dt, dtx, Bm, L)
    del dt, dtx                                            # k holds time-major copies
    D = w64(p.D_skip)
    y = np.empty((B_, T, c), dtype=np.float32)
    # the float64 readout of one segment; D*x is added and the sum rounded
    # to float32 once the segment is full
    seg = np.empty((B_, min(S, T), c), dtype=np.float64)
    for t0 in range(0, T, L):
        s = slice(t0, t0 + L)
        if starts is not None and t0 % S == 0:
            starts[t0 // S] = h
        hc = k.states(s, h, k.decay(s, k.abar[:min(L, T - t0)]))
        h = hc[-1]
        states = k.f32[:len(hc)]
        np.copyto(states, hc)
        j = t0 % S
        np.einsum("tbcn,btn->btc", states, Cm[:, s], dtype=np.float64,
                  out=seg[:, j:j + len(hc)])
        if j + len(hc) == S or t0 + len(hc) == T:
            r = slice(t0 - j, t0 + len(hc))
            out = seg[:, :j + len(hc)]
            out += D * x[:, r]
            np.copyto(y[:, r], out)
    return y, h.copy(), starts                             # h: not a view of a chunk buffer


def _adjoint(p: SsmParams, x: np.ndarray, g: np.ndarray, dtp: np.ndarray,
             Bm: np.ndarray, Cm: np.ndarray, starts: np.ndarray,
             dx: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The recurrence part of `selective_scan`'s backward for the output grad
    g: adds its share of the input grad into dx (B, T, c) float64 and returns
    the float64 grads of dt, B and C, time-major, and of A. Its working
    arrays are one segment or one chunk long, but for the chunk kernels'
    time-major float32 dt, dt*x and B, and all are let go at return."""
    B_, T, c = x.shape
    N = p.n_state
    L = _chunk_len(B_, c, N)
    S = _segment_len(B_, c, N)
    A32 = p.neg_A()
    A = A32.astype(np.float64)
    k = _Chunks(A32, *_steps(dtp, x), Bm, L)               # time-major dt, dt*x, B
    # one segment's time-major float64 copies of what the chunk terms read,
    # filled per segment; float32 widens exactly, so each product rounds as
    # the mixed-dtype one did
    gt, dtt, dtxt, xt = (np.empty((min(S, T), B_, c)) for _ in range(4))
    Ct, Bt = (np.empty((min(S, T), B_, N)) for _ in range(2))
    d_dt = np.empty((T, B_, c), dtype=np.float64)          # time-major, like dBm, dCm
    dBm = np.empty((T, B_, N), dtype=np.float64)
    dCm = np.empty((T, B_, N), dtype=np.float64)
    dA_t = np.empty((len(k.hc), c, N) if p.variant == "s6" else (len(k.hc), c))
    dA = np.zeros(dA_t.shape[1:], dtype=np.float64)
    # one segment's float32 states, row 0 its start state, and its decay
    seg = np.empty((min(S, T) + 1,) + k.hc.shape[1:], dtype=np.float32)
    seg_abar = np.empty(seg[1:].shape, dtype=np.float64)
    h64 = np.empty((len(k.hc) + 1,) + k.hc.shape[1:], dtype=np.float64)
    lams, prod, tmp = np.empty_like(k.hc), np.empty_like(k.hc), np.empty_like(k.tmp)
    carry = np.zeros_like(k.tmp)                            # lam*abar of the step after
    # Segments in reverse; each recomputes its states from its start state,
    # then runs the backward over its chunks in reverse with the decay
    # computed there. Only lam's recurrence runs step by step. The terms it
    # feeds are elementwise or reduce per step, so they run over the whole
    # chunk.
    for k0 in reversed(range(0, T, S)):
        m = min(S, T - k0)
        r = slice(k0, k0 + m)
        for buf, a in ((gt, g), (Ct, Cm), (xt, x)):
            np.copyto(buf[:m], a[:, r].swapaxes(0, 1))
        for buf, a in ((dtt, k.dt), (dtxt, k.dtx), (Bt, k.Bm)):
            np.copyto(buf[:m], a[r])
        h = starts[k0 // S]
        np.copyto(seg[0], h)
        for j in range(0, m, L):
            s = slice(k0 + j, k0 + j + L)
            hc = k.states(s, h, k.decay(s, seg_abar[j:min(j + L, m)]))
            h = hc[-1]
            np.copyto(seg[j + 1:j + 1 + len(hc)], hc)
        for j in reversed(range(0, m, L)):
            abar = seg_abar[j:min(j + L, m)]
            n = len(abar)
            s, q = slice(k0 + j, k0 + j + n), slice(j, j + n)  # steps in T, in the segment
            lam = np.einsum("tbc,tbn->tbcn", gt[q], Ct[q], out=lams[:n])
            # the latest step adds the zero carry too: 0 + g*C turns -0 into +0
            np.add(lam[n - 1], carry, out=lam[n - 1])
            for i in range(n - 2, -1, -1):
                np.multiply(lam[i + 1], abar[i + 1], out=tmp)
                np.add(lam[i], tmp, out=lam[i])
            np.multiply(lam[0], abar[0], out=carry)
            hp = h64[:n + 1]
            np.copyto(hp, seg[j:j + n + 1])                 # h_prev, then the states
            np.einsum("tbc,tbcn->tbn", gt[q], hp[1:], out=dCm[s])
            d = np.multiply(lam, hp[:n], out=prod[:n])       # d_abar
            # einsum sums over b or c one product at a time from 0, the
            # order and start of a product-then-sum() over a leading axis
            if p.variant == "s6":
                np.multiply(d, abar, out=d)                   # d_arg
                # h_prev is read: its rows hold d_arg*A now
                np.multiply(d, A, out=hp[:n]).sum(axis=-1, out=d_dt[s])
                np.einsum("tbcn,tbc->tcn", d, dtt[q], out=dA_t[:n])
            else:
                d_red = d.sum(axis=-1) * abar[..., 0]
                np.multiply(d_red, A, out=d_dt[s])
                np.einsum("tbc,tbc->tc", d_red, dtt[q], out=dA_t[:n])
            # one step at a time, latest first: the float64 sum rounds as before
            for i in range(n - 1, -1, -1):
                dA += dA_t[i]
            lam_b = np.einsum("tbcn,tbn->tbcn", lam, Bt[q], out=prod[:n]).sum(axis=-1)
            d_dt[s] += lam_b * xt[q]
            np.einsum("tbcn,tbc->tbn", lam, dtxt[q], out=dBm[s])
            dx[:, s] += (lam_b * dtt[q]).swapaxes(0, 1)
    return d_dt, dBm, dCm, dA


def selective_scan(x: Tensor, p: SsmParams) -> Tensor:
    """`scan_f` from a zero state, on the tape. The backward keeps x and the
    segment starts, rebuilds dtp, B and C through `_project`, and recomputes
    dt and dt*x from dtp. y and the starts are handed over: a checkpointed
    block's replay takes them from its first run."""

    def run():
        y, _, starts = scan_f(x.data, p)
        return y, starts

    y, starts = hand_over(run)
    out = Tensor(y)
    B_, T, c = y.shape
    N = p.n_state

    def bwd(g: np.ndarray):
        g64 = g.astype(np.float64)
        dD = (g64 * x.data).sum(axis=(0, 1))
        dx = g64 * p.D_skip.data.astype(np.float64)
        del g64
        dtp, Bm, Cm = _project(p, x.data)
        d_dt, dBm, dCm, dA = _adjoint(p, x.data, g, dtp, Bm, Cm, starts, dx)
        del Bm, Cm
        d_dtp = _time_major(d_dt)
        del d_dt
        d_dtp *= sigmoid_f(dtp).astype(np.float64)
        x2 = x.data.reshape(-1, c).astype(np.float64)
        dW = {}
        for name, gout, lin in (("dt", d_dtp.reshape(-1, c), p.x_to_dt),
                                ("B", _time_major(dBm).reshape(-1, N), p.x_to_B),
                                ("C", _time_major(dCm).reshape(-1, N), p.x_to_C)):
            dW[name] = f32(gout.T @ x2)
            dx += (gout @ lin.weight.data.astype(np.float64)).reshape(B_, T, c)
        # d/dA_log of A = -exp(A_log) is A itself
        return (f32(dx), f32(dA * p.neg_A().astype(np.float64)), dW["B"], dW["C"],
                dW["dt"], f32(d_dtp.sum(axis=(0, 1))), f32(dD))

    return record(out, (x, p.A_log, p.x_to_B.weight, p.x_to_C.weight,
                        p.x_to_dt.weight, p.dt_bias, p.D_skip), bwd)


def scan_step(p: SsmParams, h: np.ndarray, x_t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One decode step, the T=1 call of `scan_f`. h (B, c, N) float64 carried
    state, x_t (B, c) float32 -> (y_t float32 (B, c), new state)."""
    y, h, _ = scan_f(x_t[:, None], p, h)
    return y[:, 0], h
