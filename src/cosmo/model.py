"""Split causal LM with gated bottlenecked cross-attention and a contrastive head.

The base transformer and the vision encoder are frozen at random
initialization; everything that learns lives in the resampler, the fusion
layers interleaved into the second half of the stack, the two contrastive
pooling queries, the projection heads, and the similarity temperature.

A fusion layer is placed immediately before decoder blocks
``split_index, split_index + cross_interval, ...``. Each one down-projects
the residual stream by ``compress_ratio``, cross-attends to the visual
tokens, up-projects back, and is scaled by ``tanh(gate)`` with the gate
starting at zero, so a freshly built model is exactly the frozen base LM.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

NEG_INF = -1e30


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 32
    n_heads: int = 2
    n_layers_total: int = 4
    split_index: int = 2
    cross_interval: int = 1
    compress_ratio: int = 1
    n_latents: int = 4
    d_vision: int = 16
    n_patches: int = 4
    d_embed_contrastive: int = 16
    temperature: float = 0.07
    max_seq: int = 256

    def validate(self) -> None:
        if not 0 < self.split_index < self.n_layers_total:
            raise ValueError(
                f"split_index must satisfy 0 < split_index < n_layers_total, "
                f"got {self.split_index} of {self.n_layers_total}")
        if self.cross_interval < 1:
            raise ValueError(f"cross_interval must be >= 1, got {self.cross_interval}")
        if self.compress_ratio < 1:
            raise ValueError(f"compress_ratio must be >= 1, got {self.compress_ratio}")
        if self.d_model % self.n_heads:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_model % self.compress_ratio:
            raise ValueError(
                f"d_model {self.d_model} not divisible by compress_ratio "
                f"{self.compress_ratio}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")

    def fusion_positions(self) -> list[int]:
        """Decoder-block indices that get a fusion layer in front of them."""
        return list(range(self.split_index, self.n_layers_total, self.cross_interval))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class Model:
    config: ModelConfig
    seed: int
    frozen_params: dict[str, Tensor] = field(default_factory=dict)
    learnable_params: dict[str, Tensor] = field(default_factory=dict)

    def param(self, name: str) -> Tensor:
        if name in self.learnable_params:
            return self.learnable_params[name]
        return self.frozen_params[name]


def _init(rng, shape, scale=None) -> np.ndarray:
    if scale is None:
        scale = 1.0 / math.sqrt(shape[0]) if len(shape) > 1 else 0.02
    return rng.normal(0.0, scale, size=shape)


def build(config: ModelConfig, seed: int) -> Model:
    """Deterministic initialization; gates exactly zero; frozen/learnable split."""
    config.validate()
    rng = np.random.default_rng(seed)
    c = config
    frozen: dict[str, Tensor] = {}
    learn: dict[str, Tensor] = {}

    def fz(name, shape, scale=None):
        frozen[name] = Tensor(_init(rng, shape, scale), requires_grad=False, name=name)

    def lp(name, arr):
        learn[name] = Tensor(arr, requires_grad=True, name=name)

    d, dv = c.d_model, c.d_vision
    fz("frozen/tok_embed", (c.vocab_size, d), 0.02)
    fz("frozen/pos_embed", (c.max_seq, d), 0.02)
    for i in range(c.n_layers_total):
        p = f"frozen/block{i}/"
        frozen[p + "ln1_g"] = Tensor(np.ones(d), name=p + "ln1_g")
        frozen[p + "ln1_b"] = Tensor(np.zeros(d), name=p + "ln1_b")
        for w in ("wq", "wk", "wv", "wo"):
            fz(p + w, (d, d))
        frozen[p + "ln2_g"] = Tensor(np.ones(d), name=p + "ln2_g")
        frozen[p + "ln2_b"] = Tensor(np.zeros(d), name=p + "ln2_b")
        fz(p + "mlp_w1", (d, 4 * d))
        frozen[p + "mlp_b1"] = Tensor(np.zeros(4 * d), name=p + "mlp_b1")
        fz(p + "mlp_w2", (4 * d, d))
        frozen[p + "mlp_b2"] = Tensor(np.zeros(d), name=p + "mlp_b2")
    frozen["frozen/final_ln_g"] = Tensor(np.ones(d))
    frozen["frozen/final_ln_b"] = Tensor(np.zeros(d))
    fz("frozen/unembed", (d, c.vocab_size))
    fz("frozen/vis_w1", (dv, 2 * dv))
    fz("frozen/vis_b1", (2 * dv,), 0.02)
    fz("frozen/vis_w2", (2 * dv, dv))
    fz("frozen/vis_b2", (dv,), 0.02)

    # resampler: latent queries cross-attend to vision features. The latents
    # are drawn N(0, 1), as in Flamingo's Perceiver Resampler, so the
    # n_latents output tokens start out distinct: at a small scale they are
    # swamped by the pooled term and every token comes out nearly the same.
    # The key projection starts at zero so attention is uniform at init;
    # gradients still flow through it because the query projection is nonzero.
    lp("resampler/latents", _init(rng, (c.n_latents, d), 1.0))
    lp("resampler/wq", _init(rng, (d, d)))
    lp("resampler/wk", np.zeros((dv, d)))
    lp("resampler/wv", _init(rng, (dv, d)))
    lp("resampler/wo", _init(rng, (d, d)))

    db = d // c.compress_ratio
    for pos in c.fusion_positions():
        p = f"fusion{pos}/"
        lp(p + "ln_g", np.ones(d))
        lp(p + "ln_b", np.zeros(d))
        lp(p + "down", _init(rng, (d, db)))
        lp(p + "wq", _init(rng, (db, db)))
        lp(p + "wk", _init(rng, (d, db)))
        lp(p + "wv", _init(rng, (d, db)))
        lp(p + "up", _init(rng, (db, d)))
        lp(p + "gate", np.zeros(1))
    de = c.d_embed_contrastive
    lp("contrastive/text_query", _init(rng, (d,), 1.0 / math.sqrt(d)))
    lp("contrastive/vis_query", _init(rng, (d,), 1.0 / math.sqrt(d)))
    lp("contrastive/text_head", _init(rng, (d, de)))
    lp("contrastive/vis_head", _init(rng, (d, de)))
    lp("contrastive/log_scale", np.array([math.log(1.0 / c.temperature)]))

    return Model(config=config, seed=seed, frozen_params=frozen,
                 learnable_params=learn)


def count_params(model: Model) -> tuple[int, int]:
    """(learnable entries, total entries)."""
    learnable = sum(t.size for t in model.learnable_params.values())
    total = learnable + sum(t.size for t in model.frozen_params.values())
    return learnable, total


# ---------------------------------------------------------------------------
# forward pieces


def _ln(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    return ad.add(ad.mul(ad.layer_norm(x, axis=-1), g), b)


@functools.cache  # called per attention op with a handful of distinct args
def _swapped(ndim: int, a: int, b: int) -> tuple[int, ...]:
    """The axes of an ``ndim``-D array with axes ``a`` and ``b`` swapped."""
    axes = list(range(ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return tuple(axes)


def _heads(x: Tensor, n_heads: int) -> Tensor:
    """[..., s, d] -> [..., heads, s, d / heads]."""
    *lead, s, d = x.shape
    x = ad.reshape(x, (*lead, s, n_heads, d // n_heads))
    return ad.transpose(x, _swapped(x.ndim, -3, -2))


def _merge_heads(x: Tensor) -> Tensor:
    """[..., heads, s, dh] -> [..., s, heads * dh]."""
    *lead, h, s, dh = x.shape
    return ad.reshape(ad.transpose(x, _swapped(x.ndim, -3, -2)), (*lead, s, h * dh))


def _self_attention(model: Model, prefix: str, x: Tensor,
                    cache: dict | None = None, start: int = 0) -> Tensor:
    """Causal self-attention of rows at positions ``start..``; ``x`` is
    [s, d] or a batch [B, s, d]. With a cache, the keys and values of earlier
    positions are read from it and this call's are appended."""
    c = model.config
    s = x.shape[-2]
    dh = c.d_model // c.n_heads
    q = _heads(ad.matmul(x, model.param(prefix + "wq")), c.n_heads)
    k = _heads(ad.matmul(x, model.param(prefix + "wk")), c.n_heads)
    v = _heads(ad.matmul(x, model.param(prefix + "wv")), c.n_heads)
    if cache is not None:
        if prefix in cache:
            k_past, v_past = cache[prefix]
            k, v = ad.concat([k_past, k], axis=-2), ad.concat([v_past, v], axis=-2)
        cache[prefix] = (k, v)
    scores = ad.scale(ad.matmul(q, ad.transpose(k, _swapped(k.ndim, -2, -1))),
                      1.0 / math.sqrt(dh))
    causal = np.triu(np.ones((s, k.shape[-2]), dtype=bool), k=1 + start)
    scores = ad.masked_fill(scores, causal[None, :, :], NEG_INF)
    attn = ad.softmax(scores, axis=-1)
    out = _merge_heads(ad.matmul(attn, v))
    return ad.matmul(out, model.param(prefix + "wo"))


def _block(model: Model, i: int, x: Tensor, cache: dict | None = None,
           start: int = 0) -> Tensor:
    p = f"frozen/block{i}/"
    h = ad.add(x, _self_attention(model, p, _ln(x, model.param(p + "ln1_g"),
                                                model.param(p + "ln1_b")),
                                  cache, start))
    z = _ln(h, model.param(p + "ln2_g"), model.param(p + "ln2_b"))
    z = ad.add(ad.matmul(z, model.param(p + "mlp_w1")), model.param(p + "mlp_b1"))
    z = ad.add(ad.matmul(ad.gelu(z), model.param(p + "mlp_w2")),
               model.param(p + "mlp_b2"))
    return ad.add(h, z)


def encode_text_unimodal(model: Model, token_ids, cache: dict | None = None,
                         start: int = 0) -> Tensor:
    """First-half (unimodal) hidden states, causal throughout; [seq, d_model]
    for a list of ids, [B, seq, d_model] for a [B, seq] batch of them.

    ``token_ids`` sit at positions ``start..``; the tokens before them are
    seen through ``cache`` (see ``greedy_decode_batch``).
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size and int(ids.max()) >= model.config.vocab_size:
        raise ValueError(
            f"token id {int(ids.max())} out of vocabulary "
            f"({model.config.vocab_size})")
    end = start + ids.shape[-1]
    if end > model.config.max_seq:
        raise ValueError(f"sequence length {end} exceeds context "
                         f"{model.config.max_seq}")
    h = ad.add(ad.embedding_lookup(model.param("frozen/tok_embed"), ids),
               model.param("frozen/pos_embed")[start:end, :])
    for i in range(model.config.split_index):
        h = _block(model, i, h, cache, start)
    return h


def vision_encode(model: Model, features: np.ndarray) -> Tensor:
    """Frozen vision pathway over a [frames, patches, d_vision] feature grid.

    Returns [frames * patches, d_vision]; deterministic, carries no gradient.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[-1] != model.config.d_vision:
        raise ValueError(
            f"media features {feats.shape} do not match d_vision "
            f"{model.config.d_vision}")
    x = Tensor(feats.reshape(-1, model.config.d_vision))
    h = ad.gelu(ad.add(ad.matmul(x, model.param("frozen/vis_w1")),
                       model.param("frozen/vis_b1")))
    return ad.add(ad.matmul(h, model.param("frozen/vis_w2")),
                  model.param("frozen/vis_b2"))


def resample(model: Model, features: Tensor) -> Tensor:
    """Map any number of vision feature rows to n_latents tokens; [1, n, d]."""
    c = model.config
    lat = model.param("resampler/latents")
    q = ad.matmul(lat, model.param("resampler/wq"))
    k = ad.matmul(features, model.param("resampler/wk"))
    v = ad.matmul(features, model.param("resampler/wv"))
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(c.d_model))
    pooled = ad.matmul(ad.softmax(scores, axis=-1), v)
    out = ad.layer_norm(ad.add(lat, ad.matmul(pooled, model.param("resampler/wo"))),
                        axis=-1)
    return ad.reshape(out, (1, c.n_latents, c.d_model))


def encode_media(model: Model, media_features: list[np.ndarray]) -> Tensor | None:
    """vision_encode + resample per media item; [n_media, n_latents, d_model]."""
    if not media_features:
        return None
    toks = [resample(model, vision_encode(model, f)) for f in media_features]
    return toks[0] if len(toks) == 1 else ad.concat(toks, axis=0)


def _fusion(model: Model, pos: int, x: Tensor, vtok_flat: Tensor,
            visible: np.ndarray, cache: dict | None = None) -> Tensor:
    """Gated bottlenecked cross-attention from text to visual tokens.

    ``x`` is [s, d] with ``vtok_flat`` [m, d], or a batch [B, s, d] with
    [B, m, d]. ``visible[..., s, m]`` marks which flattened visual tokens each
    text position may attend to (media-causal). Rows that see nothing pass
    through. With a cache, the visual keys and values are computed once and
    then read back.
    """
    p = f"fusion{pos}/"
    xh = _ln(x, model.param(p + "ln_g"), model.param(p + "ln_b"))
    xb = ad.matmul(xh, model.param(p + "down"))
    q = ad.matmul(xb, model.param(p + "wq"))
    if cache is not None and p in cache:
        k, v = cache[p]
    else:
        k = ad.matmul(vtok_flat, model.param(p + "wk"))
        v = ad.matmul(vtok_flat, model.param(p + "wv"))
        if cache is not None:
            cache[p] = (k, v)
    db = q.shape[-1]
    scores = ad.scale(ad.matmul(q, ad.transpose(k, _swapped(k.ndim, -2, -1))),
                      1.0 / math.sqrt(db))
    scores = ad.masked_fill(scores, ~visible, NEG_INF)
    attn = ad.softmax(scores, axis=-1)
    z = ad.matmul(ad.matmul(attn, v), model.param(p + "up"))
    row_has_media = visible.any(axis=-1, keepdims=True).astype(np.float64)
    z = ad.mul(z, Tensor(row_has_media))
    gate = ad.tanh(model.param(p + "gate"))
    return ad.add(x, ad.mul(z, gate))


def _media_visibility(media_positions: list[tuple[int, int]], n_media: int,
                      n_latents: int, start: int, end: int) -> np.ndarray:
    """[end - start, n_media * n_latents]: the visual tokens each text
    position at ``start..end`` may attend to."""
    visible = np.zeros((end - start, n_media * n_latents), dtype=bool)
    for tok_pos, m_idx in media_positions:
        if not 0 <= m_idx < n_media:
            raise ValueError(f"media index {m_idx} out of range ({n_media} items)")
        if not 0 <= tok_pos < end:
            raise ValueError(f"media token position {tok_pos} outside sequence {end}")
        lo = m_idx * n_latents
        visible[max(tok_pos - start, 0):, lo:lo + n_latents] = True
    return visible


def fuse_and_decode(model: Model, text_hidden: Tensor, visual: Tensor | None,
                    media_positions, cache: dict | None = None,
                    start: int = 0) -> Tensor:
    """Second-half decoder with fusion layers; returns logits [seq, vocab].

    ``media_positions`` maps token positions to media indices; a text token
    may only attend to media introduced at or before its own position.
    ``text_hidden`` holds positions ``start..``, as in ``encode_text_unimodal``.
    Batched, ``text_hidden`` is [B, seq, d], ``visual`` [B, n_media,
    n_latents, d], ``media_positions`` one list per row, and the logits
    [B, seq, vocab].
    """
    c = model.config
    if visual is not None:
        *lead, n_media, n_lat, d = visual.shape
        end = start + text_hidden.shape[-2]
        if lead:
            visible = np.stack([_media_visibility(r, n_media, n_lat, start, end)
                                for r in media_positions])
        else:
            visible = _media_visibility(media_positions, n_media, n_lat, start, end)
        vtok_flat = ad.reshape(visual, (*lead, n_media * n_lat, d))
    h = text_hidden
    fusion_at = set(c.fusion_positions())
    for i in range(c.split_index, c.n_layers_total):
        if i in fusion_at and visual is not None:
            h = _fusion(model, i, h, vtok_flat, visible, cache)
        h = _block(model, i, h, cache, start)
    h = _ln(h, model.param("frozen/final_ln_g"), model.param("frozen/final_ln_b"))
    return ad.matmul(h, model.param("frozen/unembed"))


def forward_logits(model: Model, token_ids, media_features: list[np.ndarray],
                   media_positions: list[tuple[int, int]]) -> Tensor:
    """Full multimodal forward: unimodal half, fusion half, logits."""
    th = encode_text_unimodal(model, token_ids)
    visual = encode_media(model, media_features)
    return fuse_and_decode(model, th, visual, media_positions)


# ---------------------------------------------------------------------------
# contrastive head


def _pool(hidden: Tensor, query: Tensor) -> Tensor:
    """Attention-pool [n, d] rows to [1, d], or a batch [B, n, d] to [B, d]."""
    *lead, n, d = hidden.shape
    scores = ad.scale(ad.matmul(hidden, ad.reshape(query, (d, 1))),
                      1.0 / math.sqrt(d))
    attn = ad.softmax(ad.reshape(scores, (*lead, 1, n)), axis=-1)
    pooled = ad.matmul(attn, hidden)  # [..., 1, d]
    return ad.reshape(pooled, (*lead, d)) if lead else pooled


def _l2_normalize(x: Tensor) -> Tensor:
    sq = ad.sum_(ad.mul(x, x), axis=-1, keepdims=True)
    return ad.mul(x, ad.rsqrt(ad.add(sq, Tensor(np.full(sq.shape, 1e-24)))))


def embed_text(model: Model, text_hidden: Tensor) -> Tensor:
    """Text tower: pooled, projected, unit-norm [1, d_embed] embedding of the
    mid-LM states [seq, d] of one caption, or [B, d_embed] for a batch
    [B, seq, d] of equal-length captions."""
    if text_hidden.shape[-2] == 0:
        raise ValueError("embed_text: empty text segment")
    t = _pool(text_hidden, model.param("contrastive/text_query"))
    return _l2_normalize(ad.matmul(t, model.param("contrastive/text_head")))


def embed_media(model: Model, visual: Tensor) -> Tensor:
    """Media tower: pooled, projected, unit-norm [1, d_embed] embedding of one
    item's resampled tokens [n_media, n_latents, d], or [B, d_embed] for a
    batch [B, n_media, n_latents, d]."""
    d = model.config.d_model
    v = _pool(ad.reshape(visual, (*visual.shape[:-3], -1, d)),
              model.param("contrastive/vis_query"))
    return _l2_normalize(ad.matmul(v, model.param("contrastive/vis_head")))


def contrastive_embed(model: Model, text_hidden: Tensor, visual: Tensor,
                      text_span: tuple[int, int] | None = None
                      ) -> tuple[Tensor, Tensor]:
    """The (text, media) embeddings of one pair; ``text_span`` restricts the
    text tower to the caption's own token positions."""
    if text_span is not None:
        lo, hi = text_span
        text_hidden = text_hidden[lo:hi, :]
    return embed_text(model, text_hidden), embed_media(model, visual)


def logit_scale(model: Model) -> Tensor:
    """exp(log_scale) clamped so the temperature stays within [0.01, 1.0]."""
    return ad.clamp(ad.exp(model.param("contrastive/log_scale")), 1.0, 100.0)


# ---------------------------------------------------------------------------
# losses


def lm_loss(logits: Tensor, targets, loss_mask) -> Tensor:
    """Mean next-token NLL over unmasked positions."""
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(loss_mask, dtype=np.float64)
    count = mask.sum()
    if count == 0:
        raise ValueError("lm_loss: every position is masked")
    s, vocab = logits.shape
    onehot = np.zeros((s, vocab))
    onehot[np.arange(s), targets] = 1.0
    logp = ad.log(ad.softmax(logits, axis=-1))
    picked = ad.sum_(ad.mul(logp, Tensor(onehot)), axis=-1)
    total = ad.sum_(ad.mul(picked, Tensor(mask)))
    return ad.scale(total, -1.0 / count)


def _infonce(text_emb: Tensor, image_emb: Tensor, scale_t) -> Tensor:
    n = text_emb.shape[0]
    logits = ad.mul(ad.matmul(image_emb, ad.transpose(text_emb)), scale_t)
    eye = Tensor(np.eye(n))

    def ce(lg):
        logp = ad.log(ad.softmax(lg, axis=-1))
        return ad.scale(ad.sum_(ad.mul(logp, eye)), -1.0 / n)

    return ad.scale(ad.add(ce(logits), ce(ad.transpose(logits))), 0.5)


def contrastive_loss(text_emb: Tensor, image_emb: Tensor, scale_t,
                     n_shards: int = 1) -> Tensor:
    """Symmetric InfoNCE; ``scale_t`` is 1/temperature (Tensor or float).

    The batch is split into ``n_shards`` equal virtual workers, each scored
    in isolation, and the shard losses averaged; one shard scores the whole
    batch. A batch with fewer than two pairs per shard is scored whole.
    """
    n = text_emb.shape[0]
    if n < 1:
        raise ValueError("contrastive_loss: empty batch")
    if n_shards <= 1 or n < 2 * n_shards:
        return _infonce(text_emb, image_emb, scale_t)
    bounds = np.linspace(0, n, n_shards + 1).astype(int)
    parts = [_infonce(text_emb[lo:hi, :], image_emb[lo:hi, :], scale_t)
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    return ad.scale(ad.add_all(parts), 1.0 / len(parts))


def greedy_decode(model: Model, token_ids: list[int],
                  media_features: list[np.ndarray],
                  media_positions: list[tuple[int, int]],
                  stop_id: int, max_new: int = 16) -> list[int]:
    """Greedy continuation of one prompt until ``stop_id`` or ``max_new``
    tokens: the one-row case of ``greedy_decode_batch``. Raises
    ``ValueError`` at the pass whose sequence would exceed the context."""
    return greedy_decode_batch(
        model, [(token_ids, media_features, media_positions)], stop_id, max_new)[0]


def greedy_decode_batch(model: Model, prompts: list[tuple], stop_id: int,
                        max_new: int = 16) -> list[list[int]]:
    """Greedy continuations of ``(token_ids, media_features, media_positions)``
    prompts, in prompt order.

    Prompts of one length and media count form a group and decode in
    lockstep, so no row needs a padding mask. A group encodes each media item
    once, runs its prompts as one [B, seq] batch, then feeds one [B, 1]
    column of new tokens per pass against one batched cache: the keys and
    values every self-attention block cached for the earlier positions, and
    the visual keys and values each fusion layer computed on the first pass
    (the batched-decode layout of Pope et al. 2022, arXiv 2211.05102). A row
    that has produced ``stop_id`` keeps riding along, its tokens ignored,
    until every row has stopped or ``max_new`` passes have run. Each row's
    logits equal those of ``forward_logits`` over its whole sequence up to
    rounding.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (ids, feats, _) in enumerate(prompts):
        groups.setdefault((len(ids), len(feats)), []).append(i)
    out: list[list[int]] = [[] for _ in prompts]
    for rows in groups.values():
        decoded = _decode_lockstep(model, [prompts[i] for i in rows], stop_id, max_new)
        for i, tokens in zip(rows, decoded):
            out[i] = tokens
    return out


def _decode_lockstep(model: Model, group: list[tuple], stop_id: int,
                     max_new: int) -> list[list[int]]:
    ids, feats, positions = zip(*group)
    new = np.asarray(ids, dtype=np.int64)  # [B, seq]
    visual = encode_media(model, [f for row in feats for f in row])
    if visual is not None:  # [B * n_media, ...] -> [B, n_media, ...]
        visual = ad.reshape(visual, (len(group), -1, *visual.shape[1:]))
    cache: dict = {}
    start = 0
    out: list[list[int]] = [[] for _ in group]
    live = np.ones(len(group), dtype=bool)
    for _ in range(max_new):
        th = encode_text_unimodal(model, new, cache, start)
        logits = fuse_and_decode(model, th, visual, positions, cache, start)
        nxt = logits.data[:, -1, :].argmax(axis=-1)
        live &= nxt != stop_id
        if not live.any():
            break
        for r in np.flatnonzero(live):
            out[r].append(int(nxt[r]))
        start += new.shape[1]
        new = nxt[:, None]
    return out
