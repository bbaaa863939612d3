"""Selective scan: input-dependent gating of a diagonal linear recurrence.

Two parameterizations share one scan:
  "s6"  -- diagonal decay, A_log (c, N): every channel/state pair has its own rate.
  "ssd" -- scalar decay, A_log (c,): one rate per channel, broadcast over the
           N state columns. Equivalent to "s6" with rows tied.

State update per token: h = exp(dt*A) * h + (dt*x) outer B, readout
y = h . C + D * x, with dt = softplus(x W_dt + dt_bias), B = x W_B, C = x W_C.
The carried state is float64; stored per-token states round to float32 and the
readout contraction accumulates in float64.

`scan_f` runs the scan on arrays from a given state and returns the state
after it; `selective_scan` is its taped call from zero, a decode step its
T=1 call.

The scan runs time in chunks of a fixed element budget. Each chunk builds
its own decay exp(dt*A) and input term (dt*x) outer B, runs the recurrence over
them, and stores its states; only those float32 per-token states are kept for
the whole sequence, never the (B, T, c, N) decay or input terms. The backward
walks the chunks in reverse and recomputes each chunk's decay from dt. Chunking
changes no operation or its order, so the bytes equal a one-step-at-a-time scan.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import ShapeError
from .layers import Linear
from .tensor import Tensor, f32, record, sigmoid_f, softplus_f

VARIANTS = ("s6", "ssd")


class SsmParams:
    """Scan parameters for one block; channels c is the block's inner width."""

    def __init__(self, variant: str, A_log: Tensor, x_to_B: Linear, x_to_C: Linear,
                 x_to_dt: Linear, dt_bias: Tensor, D_skip: Tensor):
        if variant not in VARIANTS:
            raise ValueError(f"unknown ssm variant {variant!r}")
        c = dt_bias.data.shape[0]
        want = (c,) if variant == "ssd" else (c, x_to_B.weight.data.shape[0])
        if A_log.data.shape != want:
            raise ShapeError(f"A_log shape {A_log.data.shape}, expected {want} for {variant}")
        self.variant = variant
        self.A_log = A_log
        self.x_to_B = x_to_B
        self.x_to_C = x_to_C
        self.x_to_dt = x_to_dt
        self.dt_bias = dt_bias
        self.D_skip = D_skip

    @staticmethod
    def build(rng: Optional[np.random.Generator], variant: str, channels: int,
              n_state: int, prefix: str) -> "SsmParams":
        if variant not in VARIANTS:
            raise ValueError(f"unknown ssm variant {variant!r}")
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
            variant,
            Tensor(a_log, requires_grad=True, name=f"{prefix}.A_log"),
            Linear.build(rng, channels, n_state, f"{prefix}.x_to_B"),
            Linear.build(rng, channels, n_state, f"{prefix}.x_to_C"),
            Linear.build(rng, channels, channels, f"{prefix}.x_to_dt"),
            Tensor(dt_bias, requires_grad=True, name=f"{prefix}.dt_bias"),
            Tensor(np.ones(channels), requires_grad=True, name=f"{prefix}.D_skip"),
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

    def tensors(self) -> Dict[str, Tensor]:
        out = {self.A_log.name: self.A_log, self.dt_bias.name: self.dt_bias,
               self.D_skip.name: self.D_skip}
        for lin in (self.x_to_B, self.x_to_C, self.x_to_dt):
            out.update(lin.tensors())
        return out


def _cast64(t: Tensor) -> np.ndarray:
    """t's data cast to float64: what the scan reads of its weights."""
    return t.data.astype(np.float64)


def _project(p: SsmParams, x: np.ndarray,
             w64: Callable[[Tensor], np.ndarray] = _cast64) -> Tuple[np.ndarray, ...]:
    """Input-dependent pieces from x (..., c): dtp, dt, B, C as float32."""
    lead = x.shape[:-1]
    x2 = x.reshape(-1, p.channels).astype(np.float64)
    dtp = f32((x2 @ w64(p.x_to_dt.weight).T + w64(p.dt_bias)).reshape(lead + (p.channels,)))
    dt = softplus_f(dtp)
    Bm = f32((x2 @ w64(p.x_to_B.weight).T).reshape(lead + (p.n_state,)))
    Cm = f32((x2 @ w64(p.x_to_C.weight).T).reshape(lead + (p.n_state,)))
    return dtp, dt, Bm, Cm


def _decay(A: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """exp(dt * A) for A = neg_A(): (..., c, N) for s6's (c, N) A, (..., c, 1)
    for ssd's (c,) A (broadcasts later)."""
    if A.ndim == 2:
        return np.exp(dt[..., None] * A)
    return np.exp(dt * A)[..., None]


# Elements of one chunk's (B, L, c, N) terms: the scan builds its decay and
# input terms L time steps at a time so they stay in cache, never whole.
_CHUNK_ELEMS = 1 << 15


def _chunk_len(B_: int, c: int, N: int) -> int:
    return max(1, _CHUNK_ELEMS // (B_ * c * N))


def scan_f(x: np.ndarray, p: SsmParams, h0: Optional[np.ndarray] = None,
           w64: Callable[[Tensor], np.ndarray] = _cast64):
    """Run the scan over a batch of sequences. x (B, T, c) float32, h0 the
    (B, c, N) float64 state before x (None: zeros). w64(t) is the float64
    array read for weight t (the projections, dt_bias and D_skip); a decode
    session passes the copies it keeps. A_log is read as it is, float32.

    -> (y (B, T, c) float32, the float64 state after x, and the pieces the
    backward reuses: dtp, dt, Bm, Cm, dt*x and the float32 per-token states).
    """
    if x.ndim != 3 or x.shape[-1] != p.channels:
        raise ShapeError(f"selective_scan: input {x.shape}, expected (B, T, {p.channels})")
    B_, T, c = x.shape
    N = p.n_state
    dtp, dt, Bm, Cm = _project(p, x, w64)
    A = p.neg_A()
    dtx = dt * x                                           # (B,T,c)
    L = _chunk_len(B_, c, N)
    h = np.zeros((B_, c, N), dtype=np.float64) if h0 is None else h0
    hs = np.empty((B_, T, c, N), dtype=np.float32)
    for t0 in range(0, T, L):
        s = slice(t0, t0 + L)
        abar = _decay(A, dt[:, s])
        # the input term dt*x outer B, in float32; becomes the chunk's states
        hc = (dtx[:, s, :, None] * Bm[:, s, None, :]).astype(np.float64)
        for i in range(hc.shape[1]):
            hc[:, i] += abar[:, i] * h                     # h = abar*h + input term
            h = hc[:, i]
        hs[:, s] = hc
    h = h.copy()                                           # not a view of the last chunk
    y = np.einsum("btcn,btn->btc", hs, Cm, dtype=np.float64)
    y += w64(p.D_skip) * x
    return y.astype(np.float32), h, (dtp, dt, Bm, Cm, dtx, hs)


def selective_scan(x: Tensor, p: SsmParams) -> Tensor:
    """`scan_f` from a zero state, on the tape."""
    y, _, (dtp, dt, Bm, Cm, dtx, hs) = scan_f(x.data, p)
    out = Tensor(y)
    B_, T, c = y.shape
    N = p.n_state
    L = _chunk_len(B_, c, N)

    def bwd(g: np.ndarray):
        g64 = g.astype(np.float64)
        A32 = p.neg_A()
        A = A32.astype(np.float64)
        dD = (g64 * x.data).sum(axis=(0, 1))
        dCm = np.einsum("btc,btcn->btn", g64, hs)
        dx = g64 * p.D_skip.data.astype(np.float64)
        d_dt = np.zeros((B_, T, c), dtype=np.float64)
        dBm = np.zeros((B_, T, N), dtype=np.float64)
        if p.variant == "s6":
            dA = np.zeros((c, N), dtype=np.float64)
        else:
            dA = np.zeros(c, dtype=np.float64)
        lam = np.zeros((B_, c, N), dtype=np.float64)
        a_next = None
        # Chunks in reverse; each recomputes its decay instead of keeping it.
        # Only lam's recurrence runs step by step. The terms it feeds are
        # elementwise or reduce per step, so they run over the whole chunk.
        for t0 in reversed(range(0, T, L)):
            s = slice(t0, t0 + L)
            abar = _decay(A32, dt[:, s])
            lams = g64[:, s, :, None] * Cm[:, s, None, :]  # becomes lam per step
            n = lams.shape[1]
            for i in range(n - 1, -1, -1):
                # the last step adds the zero lam too: 0 + g*C turns -0 into +0
                lams[:, i] += lam if a_next is None else lam * a_next
                lam, a_next = lams[:, i], abar[:, i]
            h_prev = np.empty_like(lams)
            h_prev[:, 0] = hs[:, t0 - 1] if t0 else 0.0
            h_prev[:, 1:] = hs[:, t0:t0 + n - 1]
            d_abar = lams * h_prev                         # (B,n,c,N)
            if p.variant == "s6":
                d_arg = d_abar * abar
                d_dt[:, s] = (d_arg * A).sum(axis=-1)
                dA_t = (d_arg * dt[:, s, :, None]).sum(axis=0)
            else:
                d_red = d_abar.sum(axis=-1) * abar[..., 0]
                d_dt[:, s] = d_red * A
                dA_t = (d_red * dt[:, s]).sum(axis=0)
            # one step at a time, latest first: the float64 sum rounds as before
            for i in range(n - 1, -1, -1):
                dA += dA_t[i]
            lam_b = (lams * Bm[:, s, None, :]).sum(axis=-1)  # (B,n,c)
            d_dt[:, s] += lam_b * x.data[:, s]
            dBm[:, s] = (lams * dtx[:, s, :, None]).sum(axis=2)
            dx[:, s] += lam_b * dt[:, s]
        d_dtp = d_dt * sigmoid_f(dtp).astype(np.float64)
        x2 = x.data.reshape(-1, c).astype(np.float64)
        dW = {}
        for name, gout, lin in (("dt", d_dtp.reshape(-1, c), p.x_to_dt),
                                ("B", dBm.reshape(-1, N), p.x_to_B),
                                ("C", dCm.reshape(-1, N), p.x_to_C)):
            dW[name] = f32(gout.T @ x2)
            dx += (gout @ lin.weight.data.astype(np.float64)).reshape(B_, T, c)
        # d/dA_log of A = -exp(A_log) is A itself
        return (f32(dx), f32(dA * A), dW["B"], dW["C"], dW["dt"],
                f32(d_dtp.sum(axis=(0, 1))), f32(dD))

    return record(out, (x, p.A_log, p.x_to_B.weight, p.x_to_C.weight,
                        p.x_to_dt.weight, p.dt_bias, p.D_skip), bwd)


def scan_step(p: SsmParams, h: np.ndarray, x_t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One decode step, the T=1 call of `scan_f`. h (B, c, N) float64 carried
    state, x_t (B, c) float32 -> (y_t float32 (B, c), new state)."""
    y, h, _ = scan_f(x_t[:, None], p, h)
    return y[:, 0], h
