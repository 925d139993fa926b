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

Each decoder block is one ``ad.decoder_block`` node and each fusion layer one
``ad.gated_cross_attention`` node. The resampler and the contrastive pooling
are one ``ad.attention`` node each, and every other affine layer norm one
``ad.layer_norm`` node. Rows and media items of unequal size are padded into
one batch, never split into groups, and masks keep the pads unread. Media
tokens keep one layout: [n, n_latents, d] per item from ``encode_media``, and
[B, n_media * n_latents, d] per batch row in ``fuse_and_decode`` and
``embed_media``. The decode cache holds each block's keys and values and each
fusion layer's visual ones.

``Model.unimodal_states`` keeps the first-half states of token rows that
training sees again and again (whole documents, see ``training``), keyed by
the row. The half is frozen and starts every row at position 0, so a row's
states depend on the row alone. They are valid while the frozen weights are
as built or loaded: whatever changes a frozen weight must clear the store.
Training fills it lazily, so it holds at most one [1, seq, d_model] float64
array per distinct document, docs x window_len x d_model x 8 B in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


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
        for name in ("vocab_size", "d_model", "n_heads", "n_latents", "d_vision",
                     "n_patches", "d_embed_contrastive", "max_seq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
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
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be > 0 and finite, got "
                             f"{self.temperature}")

    def fusion_positions(self) -> list[int]:
        """Decoder-block indices that get a fusion layer in front of them."""
        return list(range(self.split_index, self.n_layers_total, self.cross_interval))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Model:
    config: ModelConfig
    seed: int
    frozen_params: dict[str, Tensor] = field(default_factory=dict)
    learnable_params: dict[str, Tensor] = field(default_factory=dict)
    # token row -> its encode_text_unimodal states [1, seq, d]; see the module
    unimodal_states: dict[tuple[int, ...], np.ndarray] = field(
        default_factory=dict, compare=False, repr=False)

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


_BLOCK_WEIGHTS = ("ln1_g", "ln1_b", "wq", "wk", "wv", "wo", "ln2_g", "ln2_b",
                  "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")
_FUSION_WEIGHTS = ("ln_g", "ln_b", "down", "wq", "wk", "wv", "up", "gate")


def _causal(s: int, start: int) -> np.ndarray | None:
    """[s, start + s]: the keys each of ``s`` positions at ``start..`` may not
    attend to, the later ones; None for one position, which sees every key."""
    if s == 1:
        return None
    return np.triu(np.ones((s, start + s), dtype=bool), k=1 + start)


def _block(model: Model, i: int, x: Tensor, causal: np.ndarray,
           cache: dict | None = None) -> Tensor:
    """Decoder block ``i`` over a batch ``x`` [B, s, d] under the mask
    ``causal``. With a cache, the keys and values of earlier positions are
    read from it and this call's are appended."""
    p = f"frozen/block{i}/"
    out, k, v = ad.decoder_block(x, *(model.param(p + w) for w in _BLOCK_WEIGHTS),
                                 n_heads=model.config.n_heads, hidden=causal,
                                 past=None if cache is None else cache.get(p))
    if cache is not None:
        cache[p] = (k, v)
    return out


def encode_text_unimodal(model: Model, token_ids, cache: dict | None = None,
                         start: int = 0) -> Tensor:
    """First-half (unimodal) hidden states [B, seq, d_model] of B rows of
    token ids, causal throughout. Shorter rows are right-padded with id 0 to
    the longest; the half is causal, so no real token attends to a pad.

    The ids sit at positions ``start..``; the ``start`` tokens before them
    are seen through ``cache`` (see ``greedy_decode_batch``).
    """
    width = max(map(len, token_ids), default=0)
    if any(len(r) < width for r in token_ids):
        token_ids = [list(r) + [0] * (width - len(r)) for r in token_ids]
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"token ids must be a [B, seq] batch, got shape {ids.shape}")
    if ids.size and int(ids.max()) >= model.config.vocab_size:
        raise ValueError(
            f"token id {int(ids.max())} out of vocabulary "
            f"({model.config.vocab_size})")
    end = start + ids.shape[1]
    if end > model.config.max_seq:
        raise ValueError(f"sequence length {end} exceeds context "
                         f"{model.config.max_seq}")
    h = ad.add(ad.embedding_lookup(model.param("frozen/tok_embed"), ids),
               model.param("frozen/pos_embed")[start:end, :])
    causal = _causal(ids.shape[1], start)
    for i in range(model.config.split_index):
        h = _block(model, i, h, causal, cache)
    return h


def vision_encode(model: Model, rows: np.ndarray) -> Tensor:
    """Frozen vision pathway, row by row, over feature rows [n, rows,
    d_vision] to [n, rows, d_vision]; deterministic, carries no gradient."""
    x = Tensor(rows)
    if x.ndim != 3 or x.shape[-1] != model.config.d_vision:
        raise ValueError(
            f"media features {x.shape} do not match d_vision "
            f"{model.config.d_vision}")
    h = ad.gelu(ad.add(ad.matmul(x, model.param("frozen/vis_w1")),
                       model.param("frozen/vis_b1")))
    return ad.add(ad.matmul(h, model.param("frozen/vis_w2")),
                  model.param("frozen/vis_b2"))


def resample(model: Model, features: Tensor, hidden: np.ndarray | None = None
             ) -> Tensor:
    """Map vision feature rows [n, rows, d_vision] to n_latents tokens per
    item, [n, n_latents, d], all items read by the one set of latents.
    ``hidden`` [n, 1, rows] marks the padding rows no latent may read."""
    lat = model.param("resampler/latents")
    q = ad.matmul(lat, model.param("resampler/wq"))
    k = ad.matmul(features, model.param("resampler/wk"))
    v = ad.matmul(features, model.param("resampler/wv"))
    pooled = ad.attention(q, k, v, 1.0 / math.sqrt(model.config.d_model), hidden)
    return ad.layer_norm(ad.add(lat, ad.matmul(pooled, model.param("resampler/wo"))),
                         axis=-1)


def encode_media(model: Model, media_features: list[np.ndarray]) -> Tensor | None:
    """Per-item tokens [n, n_latents, d_model] of n media items, each
    vision-encoded and resampled, or None for no media. Each [frames,
    patches, d_vision] item is flattened to rows and padded with zero rows to
    the longest, so all go through one ``vision_encode`` and one ``resample``
    call, which masks the padding out."""
    if not media_features:
        return None
    c = model.config
    items = [np.asarray(f, dtype=np.float64) for f in media_features]
    for f in items:
        if f.ndim != 3 or f.shape[-1] != c.d_vision or not f.size:
            raise ValueError(f"media features {f.shape} are not a non-empty "
                             f"[frames, patches, d_vision {c.d_vision}] grid")
    lengths = np.array([f.shape[0] * f.shape[1] for f in items])
    rows = np.zeros((len(items), lengths.max(), c.d_vision))
    for f, n, out in zip(items, lengths, rows):
        out[:n] = f.reshape(n, c.d_vision)
    hidden = np.arange(lengths.max()) >= lengths[:, None, None]  # [n, 1, rows]
    return resample(model, vision_encode(model, rows), hidden)


def _fusion(model: Model, pos: int, x: Tensor, visual: Tensor,
            hidden: np.ndarray, cache: dict | None = None) -> Tensor:
    """Gated bottlenecked cross-attention from text ``x`` [B, s, d] to the
    visual tokens ``visual`` [B, m, d].

    ``hidden`` [B, s, m] marks the visual tokens each text position may not
    attend to (media-causal). Rows that see nothing pass through. With a
    cache, the visual keys and values are computed once and then read back.
    """
    p = f"fusion{pos}/"
    kv = None if cache is None else cache.get(p)
    out, kv = ad.gated_cross_attention(
        x, *(model.param(p + w) for w in _FUSION_WEIGHTS), visual, hidden, kv)
    if cache is not None:
        cache[p] = kv
    return out


def _media_hidden(media_positions: list[list[tuple[int, int]]], n_media: int,
                  n_latents: int, start: int, end: int) -> np.ndarray:
    """[B, end - start, n_media * n_latents]: the visual tokens each text
    position at ``start..end`` of each of B rows may not attend to, those of
    media its row introduces later or never. The rows' (position, item)
    pairs give the position each item first appears at, and one comparison
    with the text positions forms the mask."""
    first = []
    for row in media_positions:
        at = [end] * n_media
        for tok_pos, m_idx in row:
            if not 0 <= m_idx < n_media:
                raise ValueError(f"media index {m_idx} out of range ({n_media} items)")
            if not 0 <= tok_pos < end:
                raise ValueError(f"media token position {tok_pos} outside sequence {end}")
            at[m_idx] = min(at[m_idx], tok_pos)
        first.append(at)
    first = np.array(first, dtype=np.int64)
    return np.arange(start, end)[:, None] < np.repeat(first, n_latents, axis=1)[:, None, :]


def fuse_and_decode(model: Model, text_hidden: Tensor, visual: Tensor | None,
                    media_positions, cache: dict | None = None,
                    start: int = 0) -> Tensor:
    """Second-half decoder with fusion layers over the hidden states
    ``text_hidden`` [B, seq, d] at positions ``start..``, as in
    ``encode_text_unimodal``: logits [B, seq, vocab], or with a ``cache``
    [B, 1, vocab], those of the last position alone, which is all a greedy
    decode reads.

    ``visual`` is [B, n_media * n_latents, d] or None for no media.
    ``media_positions`` holds one list per row mapping token positions to
    media indices; a text token may only attend to media introduced at or
    before its own position. An index the row has no media item for raises
    ``ValueError``.
    """
    c = model.config
    s = text_hidden.shape[1]
    n_media = 0 if visual is None else visual.shape[1] // c.n_latents
    hidden = _media_hidden(media_positions, n_media, c.n_latents, start, start + s)
    h = text_hidden
    causal = _causal(s, start)
    fusion_at = set(c.fusion_positions())
    for i in range(c.split_index, c.n_layers_total):
        if i in fusion_at and visual is not None:
            h = _fusion(model, i, h, visual, hidden, cache)
        h = _block(model, i, h, causal, cache)
    if cache is not None:
        h = h[:, -1:, :]
    h = ad.layer_norm(h, gain=model.param("frozen/final_ln_g"),
                      bias=model.param("frozen/final_ln_b"))
    return ad.matmul(h, model.param("frozen/unembed"))


def forward_logits(model: Model, token_ids, media_features: list[np.ndarray],
                   media_positions: list[tuple[int, int]],
                   text_hidden: Tensor | None = None,
                   visual: Tensor | None = None) -> Tensor:
    """Full multimodal forward of one sequence (unimodal half, fusion half):
    logits [seq, vocab].

    A caller that already holds the sequence's encodings passes them, and
    they are not recomputed: ``text_hidden`` [1, seq, d] from
    ``encode_text_unimodal`` and ``visual`` [n_media, n_latents, d], the
    rows of ``media_features`` in an ``encode_media`` output. Without them
    both are computed here."""
    if text_hidden is None:
        text_hidden = encode_text_unimodal(model, [token_ids])
    if visual is None and media_features:
        visual = encode_media(model, media_features)
    if visual is not None:
        visual = ad.reshape(visual, (1, -1, model.config.d_model))
    logits = fuse_and_decode(model, text_hidden, visual, [media_positions])
    return ad.reshape(logits, logits.shape[1:])


# ---------------------------------------------------------------------------
# contrastive head


def _pool(states: Tensor, query: Tensor, hidden: np.ndarray | None = None) -> Tensor:
    """Attention-pool a batch [B, n, d] of rows to [B, d] with one query [d]
    shared by every row, each row skipping its ``hidden`` [B, 1, n] entries."""
    b, _, d = states.shape
    pooled = ad.attention(ad.reshape(query, (1, d)), states, states,
                          1.0 / math.sqrt(d), hidden)
    return ad.reshape(pooled, (b, d))


def _l2_normalize(x: Tensor) -> Tensor:
    sq = ad.sum_(ad.mul(x, x), axis=-1, keepdims=True)
    return ad.mul(x, ad.rsqrt(ad.add(sq, Tensor(np.full(sq.shape, 1e-24)))))


def embed_text(model: Model, text_hidden: Tensor, spans: list[tuple[int, int]]
               ) -> Tensor:
    """Text tower: pooled, projected, unit-norm embeddings [B, d_embed] of
    the mid-LM states [B, seq, d] of a padded batch. Row ``i`` is pooled over
    its caption's positions ``spans[i] = (lo, hi)`` alone: the rest of the
    row (media placeholder, padding) is masked, or cut if no span covers it."""
    b, seq, _ = text_hidden.shape
    if len(spans) != b or not all(0 <= lo < hi <= seq for lo, hi in spans):
        raise ValueError(f"embed_text: empty text segment among {spans} in "
                         f"{b} rows of {seq} positions")
    lo, hi = np.array(spans).T[:, :, None, None]
    first, last = lo.min(), hi.max()
    pos = np.arange(first, last)
    t = _pool(text_hidden[:, first:last, :], model.param("contrastive/text_query"),
              (pos < lo) | (pos >= hi))
    return _l2_normalize(ad.matmul(t, model.param("contrastive/text_head")))


def embed_media(model: Model, visual: Tensor) -> Tensor:
    """Media tower: pooled, projected, unit-norm embeddings [B, d_embed] of
    media tokens [B, m, d], such as ``encode_media``'s one row per item."""
    v = _pool(visual, model.param("contrastive/vis_query"))
    return _l2_normalize(ad.matmul(v, model.param("contrastive/vis_head")))


def contrastive_embed(model: Model, text_hidden: Tensor, visual: Tensor,
                      spans: list[tuple[int, int]]) -> tuple[Tensor, Tensor]:
    """The (text, media) embeddings [B, d_embed] of a batch of pairs: padded
    mid-LM states [B, seq, d], each row pooled over its caption's ``spans``
    entry as in ``embed_text``, and media tokens [B, m, d] (``embed_media``)."""
    return embed_text(model, text_hidden, spans), embed_media(model, visual)


def logit_scale(model: Model) -> Tensor:
    """exp(log_scale) clamped so the temperature stays within [0.01, 1.0]."""
    return ad.clamp(ad.exp(model.param("contrastive/log_scale")), 1.0, 100.0)


# ---------------------------------------------------------------------------
# losses


def lm_loss(logits: Tensor, targets, loss_mask) -> Tensor:
    """Mean next-token NLL over unmasked positions: row ``i`` of ``logits``
    [seq, vocab] predicts ``targets[i]``; rows past the targets are unread.
    A target outside [0, vocab) raises ``ValueError``."""
    targets = np.asarray(targets, dtype=np.int64)
    vocab = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        bad = targets[(targets < 0) | (targets >= vocab)][0]
        raise ValueError(f"lm_loss: target id {bad} outside the vocabulary "
                         f"[0, {vocab})")
    mask = np.asarray(loss_mask, dtype=np.float64)
    count = mask.sum()
    if count == 0:
        raise ValueError("lm_loss: every position is masked")
    picked = ad.log_softmax(logits, axis=-1)[np.arange(len(targets)), targets]
    return ad.scale(ad.sum_(ad.mul(picked, Tensor(mask))), -1.0 / count)


def contrastive_loss(text_emb: Tensor, image_emb: Tensor, scale_t) -> Tensor:
    """Symmetric InfoNCE over the [n, d_embed] pairs of a batch; ``scale_t``
    is 1/temperature (Tensor or float)."""
    n = text_emb.shape[0]
    if n < 1:
        raise ValueError("contrastive_loss: empty batch")
    logits = ad.mul(ad.matmul(image_emb, ad.transpose(text_emb)), scale_t)
    pairs = (np.arange(n), np.arange(n))
    to_text = ad.log_softmax(logits, axis=-1)[pairs]
    to_media = ad.log_softmax(logits, axis=0)[pairs]
    return ad.scale(ad.sum_(ad.add(to_text, to_media)), -0.5 / n)


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
    lockstep: the trunk sees a group in its one [B, ...] layout, and a lone
    prompt is the B=1 case. Unlike the contrastive towers, prompts of unequal
    length cannot be right-padded, since each pass appends one new-token
    column that must follow every row's own last token. A group encodes
    each media item once, runs its prompts as one [B, seq] batch, then feeds
    one [B, 1] column of new tokens per pass against one batched cache: the
    keys and values every self-attention block cached for the earlier
    positions, and the visual keys and values each fusion layer computed on
    the first pass (the batched-decode layout of Pope et al. 2022, arXiv
    2211.05102). A row that has produced ``stop_id`` keeps riding along, its
    tokens ignored, until every row has stopped or ``max_new`` passes have
    run. A pass forms the final layer norm and the logits of its last
    position alone (``fuse_and_decode`` under a cache), and those logits
    equal the last row of ``forward_logits`` over the whole sequence up to
    rounding. An empty prompt, or a media position naming an item its
    prompt lacks, raises ``ValueError``.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (ids, feats, _) in enumerate(prompts):
        if not len(ids):
            raise ValueError(f"prompt {i} is empty")
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
    if visual is not None:  # [B * n_media, L, d] -> [B, n_media * L, d]
        visual = ad.reshape(visual, (len(group), -1, model.config.d_model))
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
