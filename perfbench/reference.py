"""A plain-numpy forward pass of the split LM, written from the parameter arrays.

It shares no code with ``cosmo.model``: the output checks compare the
program's logits, losses and greedy tokens against it.
"""

from __future__ import annotations

import math

import numpy as np

NEG = -1e30


def _ln(x, g=1.0, b=0.0, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _block(P, i, x, n_heads):
    p = f"frozen/block{i}/"
    s, d = x.shape
    dh = d // n_heads
    z = _ln(x, P[p + "ln1_g"], P[p + "ln1_b"])
    heads = [(z @ P[p + w]).reshape(s, n_heads, dh).transpose(1, 0, 2)
             for w in ("wq", "wk", "wv")]
    q, k, v = heads
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
    scores[:, np.triu(np.ones((s, s), dtype=bool), k=1)] = NEG
    att = (_softmax(scores) @ v).transpose(1, 0, 2).reshape(s, d)
    h = x + att @ P[p + "wo"]
    z = _ln(h, P[p + "ln2_g"], P[p + "ln2_b"])
    z = _gelu(z @ P[p + "mlp_w1"] + P[p + "mlp_b1"]) @ P[p + "mlp_w2"] + P[p + "mlp_b2"]
    return h + z


def _media_tokens(P, cfg, feats):
    """Vision encoder plus resampler for one item: [n_latents, d_model]."""
    x = np.asarray(feats, dtype=np.float64).reshape(-1, cfg.d_vision)
    f = _gelu(x @ P["frozen/vis_w1"] + P["frozen/vis_b1"]) @ P["frozen/vis_w2"] \
        + P["frozen/vis_b2"]
    lat = P["resampler/latents"]
    q = lat @ P["resampler/wq"]
    k = f @ P["resampler/wk"]
    v = f @ P["resampler/wv"]
    pooled = _softmax(q @ k.T / math.sqrt(cfg.d_model)) @ v
    return _ln(lat + pooled @ P["resampler/wo"])


def logits(P: dict, cfg, token_ids, media_features, media_positions) -> np.ndarray:
    """[seq, vocab] logits of the full multimodal forward."""
    ids = np.asarray(token_ids, dtype=np.int64)
    s = ids.size
    x = P["frozen/tok_embed"][ids] + P["frozen/pos_embed"][:s]
    for i in range(cfg.split_index):
        x = _block(P, i, x, cfg.n_heads)
    fusion = set(range(cfg.split_index, cfg.n_layers_total, cfg.cross_interval))
    if media_features:
        vis = np.concatenate([_media_tokens(P, cfg, f) for f in media_features])
        visible = np.zeros((s, len(vis)), dtype=bool)
        for pos, m in media_positions:
            visible[pos:, m * cfg.n_latents:(m + 1) * cfg.n_latents] = True
        seen = visible.any(axis=1)
    for i in range(cfg.split_index, cfg.n_layers_total):
        if i in fusion and media_features:
            p = f"fusion{i}/"
            xb = _ln(x, P[p + "ln_g"], P[p + "ln_b"]) @ P[p + "down"]
            q = xb @ P[p + "wq"]
            scores = q @ (vis @ P[p + "wk"]).T / math.sqrt(q.shape[-1])
            out = np.zeros_like(x)
            att = _softmax(np.where(visible, scores, NEG)[seen])
            out[seen] = att @ (vis @ P[p + "wv"]) @ P[p + "up"]
            x = x + out * np.tanh(P[p + "gate"])
        x = _block(P, i, x, cfg.n_heads)
    x = _ln(x, P["frozen/final_ln_g"], P["frozen/final_ln_b"])
    return x @ P["frozen/unembed"]


def lm_loss(P: dict, cfg, sample) -> float:
    """Mean next-token NLL of one training sample over its unmasked targets."""
    lg = logits(P, cfg, sample.token_ids, sample.media_features,
                sample.media_positions)[:-1]
    targets = np.asarray(sample.token_ids[1:])
    mask = np.asarray(sample.loss_mask[1:], dtype=np.float64)
    shifted = lg - lg.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    nll = -logp[np.arange(len(targets)), targets]
    return float((nll * mask).sum() / mask.sum())


def params_of(model) -> dict:
    """Copies of every parameter array of a ``cosmo.model.Model``."""
    out = {k: t.data.copy() for k, t in model.frozen_params.items()}
    out.update({k: t.data.copy() for k, t in model.learnable_params.items()})
    return out
