"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: float64, explicit loops, no code shared
with the package under test. Expected values in the test files come from these.
The exceptions are `tape_sum`, a scalar test loss recorded on the package's
tape so gradient tests can call backward, `kept_arrays`, which lists what a
tape closure holds, and the frozen tape ops at the end.
"""

import numpy as np

from ssmprune import tensor as tn


def finite_diff(f, arrays, h=1e-3):
    """Central finite differences of the scalar f() w.r.t. each array.

    f is a closure over `arrays`; entries are perturbed in place and restored.
    The effective step is measured after float32 rounding so the quotient uses
    the step that actually happened.
    """
    grads = []
    for a in arrays:
        g = np.zeros(a.shape, dtype=np.float64)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i].copy()
            flat[i] = keep + h
            xp = float(flat[i])
            up = f()
            flat[i] = keep - h
            xm = float(flat[i])
            dn = f()
            flat[i] = keep
            gf[i] = (up - dn) / (xp - xm)
        grads.append(g)
    return grads


def rel_err(got, want):
    """Infinity-norm error relative to the larger of |want|'s peak and 1e-8."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.abs(want).max(), 1e-8)
    return float(np.abs(got - want).max() / denom)


def naive_selective_scan(x, dt, A, B, C, D):
    """Reference scan: float64, one token at a time.

    x (T, c), dt (T, c), A (c, N), B (T, N), C (T, N), D (c) -> y (T, c).
    State update h = exp(dt*A) * h + (dt*x) B, readout y = h . C + D*x.
    """
    x = np.asarray(x, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    T, c = x.shape
    N = A.shape[1]
    h = np.zeros((c, N))
    ys = np.zeros((T, c))
    for t in range(T):
        abar = np.exp(dt[t][:, None] * A)
        h = abar * h + (dt[t] * x[t])[:, None] * B[t][None, :]
        ys[t] = h @ C[t] + D * x[t]
    return ys


def naive_rmsnorm(x, scale, eps=1e-5):
    """x (T, d), scale (d) -> (T, d), float64."""
    x = np.asarray(x, dtype=np.float64)
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x / np.sqrt(ms + eps) * np.asarray(scale, dtype=np.float64)


def naive_causal_conv(x, kernel):
    """Depthwise causal conv. x (T, c), kernel (c, w) -> (T, c), float64."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    T, c = x.shape
    w = kernel.shape[1]
    y = np.zeros((T, c))
    for t in range(T):
        for j in range(w):
            src = t - (w - 1) + j
            if src >= 0:
                y[t] += kernel[:, j] * x[src]
    return y


def naive_attention(x, wq, wk, wv, wo, n_heads):
    """Causal multi-head attention, float64. x (T, d), weights (d, d) row-major
    as used by y = x @ w.T; returns (T, d)."""
    x = np.asarray(x, dtype=np.float64)
    T, d = x.shape
    hd = d // n_heads
    q = x @ np.asarray(wq, dtype=np.float64).T
    k = x @ np.asarray(wk, dtype=np.float64).T
    v = x @ np.asarray(wv, dtype=np.float64).T
    out = np.zeros((T, d))
    for h in range(n_heads):
        qs = q[:, h * hd:(h + 1) * hd]
        ks = k[:, h * hd:(h + 1) * hd]
        vs = v[:, h * hd:(h + 1) * hd]
        scores = qs @ ks.T / np.sqrt(hd)
        for t in range(T):
            row = scores[t, : t + 1]
            row = row - row.max()
            p = np.exp(row)
            p = p / p.sum()
            out[t, h * hd:(h + 1) * hd] = p @ vs[: t + 1]
    return out @ np.asarray(wo, dtype=np.float64).T


def naive_gated_mlp(x, w_up, w_gate, w_down):
    """down(silu(gate(x)) * up(x)), float64. x (T, d); up/gate (D, d); down (d, D)."""
    x = np.asarray(x, dtype=np.float64)
    up = x @ np.asarray(w_up, dtype=np.float64).T
    gate = x @ np.asarray(w_gate, dtype=np.float64).T
    act = gate / (1.0 + np.exp(-gate))
    return (act * up) @ np.asarray(w_down, dtype=np.float64).T


def naive_cross_entropy(logits, targets):
    """Mean token NLL, float64 log-softmax. logits (T, V), targets (T,)."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    T = logits.shape[0]
    total = 0.0
    for t in range(T):
        row = logits[t] - logits[t].max()
        lse = np.log(np.exp(row).sum())
        total += lse - row[targets[t]]
    return total / T


def naive_perplexity(nlls):
    """exp of the mean of per-token NLLs, float64."""
    return float(np.exp(np.mean(np.asarray(nlls, dtype=np.float64))))


# ---------------------------------------------------------------------------
# Test loss. The package records no bare reduction, so gradient tests reduce
# an op's output to a scalar with this sum, recorded on the package's tape.


def tape_sum(a):
    """Sum of all elements of Tensor a -> 0-d Tensor, accumulated in float64,
    with the float64 total in .hi; its backward spreads the grad to every element."""
    total = a.data.astype(np.float64).sum()
    out = tn.Tensor(np.float32(total))
    out.hi = float(total)
    return tn.record(out, (a,), lambda g: (np.full_like(a.data, g.reshape(())),))


def kept_arrays(bwd):
    """Every ndarray a backward closure holds: in its cells, in tuples there,
    and as the data of Tensors there."""
    out, todo = [], [c.cell_contents for c in bwd.__closure__ or ()]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            out.append(obj)
        elif isinstance(obj, tn.Tensor):
            out.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
    return out


# ---------------------------------------------------------------------------
# Frozen kernels. Unlike the references above, these are verbatim copies of
# the package's earlier numpy kernels: the masked sigmoid, the selective scan
# that built its whole (B, T, c, N) decay and input terms before the
# recurrence, and attention's boolean-index causal mask. The current kernels
# rearrange the same arithmetic and must reproduce these to the byte.


def frozen_sigmoid(x):
    """Masked-branch sigmoid: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _frozen_f32(x):
    x = np.asarray(x, dtype=np.float32)
    return np.ascontiguousarray(x) if x.ndim else x


def frozen_selective_scan(x, p, g):
    """Unchunked scan of x (B, T, c) float32 under SsmParams p, and its
    backward for the output grad g (B, T, c) float32.

    Returns (y float64, final state float64, grads) where grads is the tuple
    the scan's backward closure returns: x, A_log, x_to_B, x_to_C, x_to_dt,
    dt_bias, D_skip.
    """
    B_, T, c = x.shape
    N = p.n_state
    x2 = x.reshape(-1, c).astype(np.float64)
    dtp = _frozen_f32((x2 @ p.x_to_dt.weight.data.astype(np.float64).T
                       + p.dt_bias.data.astype(np.float64)).reshape(B_, T, c))
    safe = np.minimum(dtp, np.float32(30.0))
    dt = np.where(dtp > 30.0, dtp, np.log1p(np.exp(safe)))
    Bm = _frozen_f32((x2 @ p.x_to_B.weight.data.astype(np.float64).T).reshape(B_, T, N))
    Cm = _frozen_f32((x2 @ p.x_to_C.weight.data.astype(np.float64).T).reshape(B_, T, N))
    A = -np.exp(p.A_log.data)
    if p.variant == "s6":
        abar = np.exp(dt[..., None] * A)
    else:
        abar = np.exp(dt * A)[..., None]
    dtx = dt * x
    dbx = dtx[..., None] * Bm[:, :, None, :]
    h = np.zeros((B_, c, N), dtype=np.float64)
    hs = np.empty((B_, T, c, N), dtype=np.float32)
    for t in range(T):
        h = abar[:, t] * h + dbx[:, t]
        hs[:, t] = h
    y = np.einsum("btcn,btn->btc", hs, Cm, dtype=np.float64)
    y += p.D_skip.data.astype(np.float64) * x

    g64 = g.astype(np.float64)
    A = A.astype(np.float64)
    dD = (g64 * x).sum(axis=(0, 1))
    dCm = np.einsum("btc,btcn->btn", g64, hs)
    dx = g64 * p.D_skip.data.astype(np.float64)
    d_dt = np.zeros((B_, T, c), dtype=np.float64)
    dBm = np.zeros((B_, T, N), dtype=np.float64)
    dA = np.zeros((c, N) if p.variant == "s6" else c, dtype=np.float64)
    lam = np.zeros((B_, c, N), dtype=np.float64)
    for t in range(T - 1, -1, -1):
        if t < T - 1:
            lam *= abar[:, t + 1]
        lam += g64[:, t, :, None] * Cm[:, t, None, :]
        h_prev = hs[:, t - 1].astype(np.float64) if t > 0 else 0.0
        d_abar = lam * h_prev
        if p.variant == "s6":
            d_arg = d_abar * abar[:, t]
            d_dt[:, t] = (d_arg * A).sum(axis=-1)
            dA += (d_arg * dt[:, t, :, None]).sum(axis=0)
        else:
            d_red = d_abar.sum(axis=-1) * abar[:, t, :, 0]
            d_dt[:, t] = d_red * A
            dA += (d_red * dt[:, t]).sum(axis=0)
        lam_b = (lam * Bm[:, t, None, :]).sum(axis=-1)
        d_dt[:, t] += lam_b * x[:, t]
        dBm[:, t] = (lam * dtx[:, t, :, None]).sum(axis=1)
        dx[:, t] += lam_b * dt[:, t]
    d_dtp = d_dt * frozen_sigmoid(dtp).astype(np.float64)
    dW = {}
    for name, gout, lin in (("dt", d_dtp.reshape(-1, c), p.x_to_dt),
                            ("B", dBm.reshape(-1, N), p.x_to_B),
                            ("C", dCm.reshape(-1, N), p.x_to_C)):
        dW[name] = gout.T @ x2
        dx += (gout @ lin.weight.data.astype(np.float64)).reshape(B_, T, c)
    grads = (_frozen_f32(dx), _frozen_f32(dA * A), _frozen_f32(dW["B"]),
             _frozen_f32(dW["C"]), _frozen_f32(dW["dt"]),
             _frozen_f32(d_dtp.sum(axis=(0, 1))), _frozen_f32(dD))
    return y, h, grads


def frozen_attention(x, wq, wk, wv, wo, n_heads):
    """Attention forward with the boolean-index causal mask. x (B, T, d)
    float32, weights (d, d) float32 -> (y float64, k, v float64 heads)."""
    B, T, d = x.shape
    hd = d // n_heads
    x2 = x.reshape(-1, d).astype(np.float64)

    def heads(w):
        return (x2 @ w.astype(np.float64).T).reshape(B, T, n_heads, hd).transpose(0, 2, 1, 3)

    q, k, v = heads(wq), heads(wk), heads(wv)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd)
    mask = np.triu(np.ones((T, T), dtype=bool), k=1)
    scores[:, :, mask] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = (p @ v).transpose(0, 2, 1, 3).reshape(-1, d)
    return (ctx @ wo.astype(np.float64).T).reshape(B, T, d), k, v


# Frozen backwards. Tape ops that keep what the package's closures kept
# before they were made to recompute it: silu its sigmoid, attention its
# float64 weights p, cross-entropy its shifted logits, and the scan every
# per-token piece (through `frozen_selective_scan`). The package's grads
# must equal theirs to the byte.


def frozen_silu(a):
    """silu on the tape, the forward's sigmoid s kept for the backward."""
    s = frozen_sigmoid(a.data)
    out = tn.Tensor(a.data * s)

    def bwd(g):
        return (g * (s * (1.0 + a.data * (1.0 - s))),)

    return tn.record(out, (a,), bwd)


def frozen_attention_op(x, wq, wk, wv, wo, n_heads):
    """Attention on the tape, the forward's (B, H, T, T) p kept for the
    backward. Tensors in, as `layers.attention` takes them."""
    B, T, d = x.data.shape
    hd = d // n_heads
    x2 = x.data.reshape(-1, d).astype(np.float64)

    def heads(w):
        return (x2 @ w.data.astype(np.float64).T).reshape(B, T, n_heads, hd).transpose(0, 2, 1, 3)

    q, k, v = heads(wq), heads(wk), heads(wv)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd)
    mask = np.triu(np.ones((T, T), dtype=bool), k=1)
    scores[:, :, mask] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = (p @ v).transpose(0, 2, 1, 3).reshape(-1, d)
    out = tn.Tensor((ctx @ wo.data.astype(np.float64).T).astype(np.float32).reshape(B, T, d))

    def bwd(g):
        g2 = g.reshape(-1, d).astype(np.float64)
        gctx = (g2 @ wo.data.astype(np.float64)).reshape(B, T, n_heads, hd).transpose(0, 2, 1, 3)
        gp = gctx @ v.transpose(0, 1, 3, 2)
        gv = p.transpose(0, 1, 3, 2) @ gctx
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) / np.sqrt(hd)
        gq = gs @ k
        gk = gs.transpose(0, 1, 3, 2) @ q

        def unheads(h):
            return h.transpose(0, 2, 1, 3).reshape(-1, d)

        gq2, gk2, gv2 = unheads(gq), unheads(gk), unheads(gv)
        gx64 = (gq2 @ wq.data.astype(np.float64) + gk2 @ wk.data.astype(np.float64)
                + gv2 @ wv.data.astype(np.float64))
        return (_frozen_f32(gx64.reshape(B, T, d)), _frozen_f32(gq2.T @ x2),
                _frozen_f32(gk2.T @ x2), _frozen_f32(gv2.T @ x2), _frozen_f32(g2.T @ ctx))

    return tn.record(out, (x, wq, wk, wv, wo), bwd)


def frozen_cross_entropy(logits, targets):
    """Mean NLL on the tape, the shifted float64 logits z kept for the backward."""
    V = logits.data.shape[-1]
    flat = logits.data.reshape(-1, V).astype(np.float64)
    tflat = np.asarray(targets).reshape(-1)
    n = flat.shape[0]
    z = flat - flat.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    total = (lse - z[np.arange(n), tflat]).mean()
    out = tn.Tensor(np.float32(total))
    out.hi = float(total)

    def bwd(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), tflat] -= 1.0
        p *= float(g.reshape(())) / n
        return (_frozen_f32(p.reshape(logits.data.shape)),)

    return tn.record(out, (logits,), bwd)


def frozen_scan_op(x, p):
    """The selective scan on the tape through `frozen_selective_scan`."""
    y, _, _ = frozen_selective_scan(x.data, p, np.zeros_like(x.data))
    out = tn.Tensor(y.astype(np.float32))
    return tn.record(out, (x, p.A_log, p.x_to_B.weight, p.x_to_C.weight, p.x_to_dt.weight,
                           p.dt_bias, p.D_skip),
                     lambda g: frozen_selective_scan(x.data, p, g)[2])
