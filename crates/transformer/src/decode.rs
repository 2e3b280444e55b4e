//! Incremental KV-cached decoding with batched candidate lanes
//! (DESIGN.md §11).
//!
//! The training path decodes a whole `(T, d_model)` prefix per call, which
//! makes autoregressive generation O(T²) layer passes. This module is the
//! inference path: the encoder memory is processed **once** per source
//! ([`EncodedSource`]), each candidate ("lane") keeps per-layer key/value
//! caches of everything it has decoded so far, and one [`BatchDecoder::step`]
//! appends one token per lane, costing one batched pass through the
//! projections plus one in-place read of each lane's cache.
//!
//! A step allocates nothing: the decoder owns its working rows, sized for
//! its lanes, and reserves its KV caches for the steps it will run.
//!
//! **Bit-identity contract.** Logits produced here are bit-identical to the
//! full autograd [`Seq2SeqTransformer::decode`] over the same prefix:
//!
//! * Every projection/normalization/activation runs the same row kernel as
//!   the `Var` graph (`neural::funcs::matmul_into` and `matmul_row`,
//!   `layer_norm_row`, `softmax_row`, `gelu_scalar`) — same float ops, same
//!   order, row-locally.
//! * Attention reads the caches in place with each score's op sequence
//!   unchanged: a self-attention score sums `q[k]·K[t][k]` over `k`
//!   ascending, skipping zero `q[k]`, exactly as `qs.matmul(&ks.transpose())`
//!   does per entry; the weighted sum of V rows is `matmul_row` over the
//!   head's column block.
//! * Causal masking needs no mask here: in the full decode, masked scores
//!   get `-1e9` added, underflow to exactly `0.0` through the f32
//!   `exp`, contribute exactly nothing to the softmax normalizer (adding
//!   `+0.0` to a finite accumulator is the identity), and are then skipped
//!   by the zero-skip matmul kernel. Attending over the truncated cache is
//!   therefore the same computation.
//!
//! The equivalence suite in `tests/decode_equivalence.rs` pins both claims
//! with `.to_bits()` assertions.

use crate::model::{DecoderLayer, Seq2SeqTransformer};
use linalg::RowArena;
use neural::funcs::{gelu_scalar, matmul_row, softmax_row};
use neural::Tensor;

/// Per-source encoder state, computed once and shared by every candidate
/// lane and every retry that synthesizes from the same source string.
pub struct EncodedSource {
    /// Encoder output `(Ls, d_model)` for the framed source.
    memory: Tensor,
    /// Per decoder layer: precomputed cross-attention projections of the
    /// memory (they do not depend on the decoded prefix).
    cross: Vec<CrossCtx>,
}

/// Cross-attention context of one decoder layer. Head `h` reads rows
/// `h·d_head..(h+1)·d_head` of `kt` and the same column block of `v`.
struct CrossCtx {
    /// Transposed keys `(d_model, Ls)`: `wk(memory).transpose()`.
    kt: Tensor,
    /// Values `(Ls, d_model)`: `wv(memory)`.
    v: Tensor,
}

impl EncodedSource {
    pub(crate) fn from_framed(model: &Seq2SeqTransformer, framed_src: &[usize]) -> Self {
        let memory = model.encode(framed_src).value();
        let cross = model
            .dec_layers
            .iter()
            .map(|layer| CrossCtx {
                kt: layer.cross_attn.wk.forward_tensor(&memory).transpose(),
                v: layer.cross_attn.wv.forward_tensor(&memory),
            })
            .collect();
        EncodedSource { memory, cross }
    }

    /// The raw encoder memory `(Ls, d_model)`.
    pub fn memory(&self) -> &Tensor {
        &self.memory
    }

    /// Length of the framed source sequence.
    pub fn src_len(&self) -> usize {
        self.memory.rows()
    }
}

/// One candidate's decoding state: its prefix length and per-layer KV caches.
struct Lane {
    len: usize,
    /// Per decoder layer: cached self-attention keys `(len, d_model)`.
    k: Vec<RowArena<f32>>,
    /// Per decoder layer: cached self-attention values `(len, d_model)`.
    v: Vec<RowArena<f32>>,
}

impl Lane {
    fn new(layers: usize, d_model: usize, steps: usize) -> Self {
        let arenas = || {
            (0..layers)
                .map(|_| RowArena::with_row_capacity(d_model, steps))
                .collect()
        };
        Lane {
            len: 0,
            k: arenas(),
            v: arenas(),
        }
    }
}

/// The working rows of one step, sized for every lane of the decoder and
/// reused by every step: a step with `m` feeds uses the first `m` rows.
struct Rows {
    /// Residual stream `(lanes, d_model)`.
    x: Vec<f32>,
    /// Layer-norm output `(lanes, d_model)`.
    norm: Vec<f32>,
    /// Query, new-key and new-value projections `(lanes, d_model)`.
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// Concatenated attention-head outputs `(lanes, d_model)`.
    heads: Vec<f32>,
    /// Output projection of a sub-layer, added into `x` `(lanes, d_model)`.
    proj: Vec<f32>,
    /// Feed-forward hidden activations `(lanes, d_ff)`.
    hidden: Vec<f32>,
    /// One attention row: `max(max_len, Ls)` scores.
    scores: Vec<f32>,
    /// Next-token logits `(lanes, vocab)`.
    logits: Vec<f32>,
}

/// Lockstep incremental decoder over any number of candidate lanes sharing
/// one [`EncodedSource`].
pub struct BatchDecoder<'m> {
    model: &'m Seq2SeqTransformer,
    src: &'m EncodedSource,
    lanes: Vec<Lane>,
    rows: Rows,
}

impl<'m> BatchDecoder<'m> {
    /// A decoder with `n_lanes` empty lanes against `src`, whose KV caches
    /// are reserved for `steps` tokens per lane. Steps up to that count
    /// allocate nothing; a lane may still run on to the model's `max_len`,
    /// growing its caches.
    pub fn new(
        model: &'m Seq2SeqTransformer,
        src: &'m EncodedSource,
        n_lanes: usize,
        steps: usize,
    ) -> Self {
        let cfg = model.config();
        let (d, layers) = (cfg.d_model, model.dec_layers.len());
        let buf = |width: usize| vec![0.0f32; n_lanes * width];
        BatchDecoder {
            model,
            src,
            lanes: (0..n_lanes)
                .map(|_| Lane::new(layers, d, steps.min(cfg.max_len)))
                .collect(),
            rows: Rows {
                x: buf(d),
                norm: buf(d),
                q: buf(d),
                k: buf(d),
                v: buf(d),
                heads: buf(d),
                proj: buf(d),
                hidden: buf(cfg.d_ff),
                scores: vec![0.0; cfg.max_len.max(src.src_len())],
                logits: buf(cfg.vocab),
            },
        }
    }

    /// Feeds one token into each listed lane and returns the row-major
    /// `(feeds.len(), vocab)` next-token logits, row `r` for `feeds[r]`.
    ///
    /// Each lane may appear at most once per step. Row `r` is bit-identical
    /// to the last row of `Seq2SeqTransformer::decode` over that lane's full
    /// prefix (see the module docs for why).
    pub fn step(&mut self, feeds: &[(usize, usize)]) -> &[f32] {
        assert!(
            !feeds.is_empty(),
            "step needs at least one (lane, token) feed"
        );
        assert!(
            feeds
                .iter()
                .enumerate()
                .all(|(i, &(lane, _))| feeds[..i].iter().all(|&(other, _)| other != lane)),
            "a lane was fed twice in one step"
        );
        let model = self.model;
        let cfg = model.config();
        let d = cfg.d_model;
        let m = feeds.len();
        let rows = &mut self.rows;

        // Embed each lane's new token, mirroring `embed`: table lookup,
        // scale by sqrt(d_model), add the token's positional row.
        {
            let w = model.embed_tgt.w.data();
            let scale = (d as f32).sqrt();
            for (x, &(lane, tok)) in rows.x.chunks_exact_mut(d).zip(feeds) {
                assert!(tok < w.rows(), "token {tok} out of vocab");
                let len = self.lanes[lane].len;
                assert!(
                    len < cfg.max_len,
                    "lane {lane} exceeded max_len {}",
                    cfg.max_len
                );
                for ((x, &e), &p) in x.iter_mut().zip(w.row(tok)).zip(model.pos.row(len)) {
                    *x = e * scale + p;
                }
            }
        }

        for (li, layer) in model.dec_layers.iter().enumerate() {
            step_layer(layer, &self.src.cross[li], &mut self.lanes, feeds, li, rows);
        }

        let (x, norm) = (&rows.x[..m * d], &mut rows.norm[..m * d]);
        model.ln_final.forward_into(x, norm);
        let logits = &mut rows.logits[..m * cfg.vocab];
        model.out_proj.forward_into(norm, m, logits);
        for &(lane, _) in feeds {
            self.lanes[lane].len += 1;
        }
        obs::counter("decode.kv_cache_steps", m as u64);
        logits
    }
}

/// One decoder layer over the first `m = feeds.len()` rows of `rows.x`:
/// batched projections, per-lane cached self-attention, shared
/// cross-attention, feed-forward; `rows.x` is updated in place.
fn step_layer(
    layer: &DecoderLayer,
    cross: &CrossCtx,
    lanes: &mut [Lane],
    feeds: &[(usize, usize)],
    li: usize,
    rows: &mut Rows,
) {
    let d = cross.kt.rows();
    let m = feeds.len();
    let n = m * d;

    // Causal self-attention: project the new rows in one batch, then attend
    // each lane's row against its own cache.
    let attn = &layer.self_attn;
    let dh = attn.d_head;
    let scale = 1.0 / (dh as f32).sqrt();
    layer.ln1.forward_into(&rows.x[..n], &mut rows.norm[..n]);
    attn.wq.forward_into(&rows.norm[..n], m, &mut rows.q[..n]);
    attn.wk.forward_into(&rows.norm[..n], m, &mut rows.k[..n]);
    attn.wv.forward_into(&rows.norm[..n], m, &mut rows.v[..n]);
    for (r, &(lane, _)) in feeds.iter().enumerate() {
        let lane = &mut lanes[lane];
        let (kc, vc) = (&mut lane.k[li], &mut lane.v[li]);
        kc.push_row(&rows.k[r * d..(r + 1) * d]);
        vc.push_row(&rows.v[r * d..(r + 1) * d]);
        let scores = &mut rows.scores[..kc.rows()];
        for h in 0..attn.n_heads {
            let off = h * dh;
            let q = &rows.q[r * d + off..r * d + off + dh];
            for (s, krow) in scores.iter_mut().zip(kc.data().chunks_exact(d)) {
                *s = dot_zero_skip(q, &krow[off..off + dh]) * scale;
            }
            softmax_row(scores);
            let out = &mut rows.heads[r * d + off..r * d + off + dh];
            out.fill(0.0);
            matmul_row(scores, &vc.data()[off..], d, out);
        }
    }
    attn.wo
        .forward_into(&rows.heads[..n], m, &mut rows.proj[..n]);
    add_assign(&mut rows.x[..n], &rows.proj[..n]);

    // Cross-attention: every lane's row attends over the shared memory K/V
    // (row-local, so identical to the batched per-head matmuls).
    let cattn = &layer.cross_attn;
    let dh = cattn.d_head;
    let scale = 1.0 / (dh as f32).sqrt();
    let ls = cross.kt.cols();
    layer.ln2.forward_into(&rows.x[..n], &mut rows.norm[..n]);
    cattn.wq.forward_into(&rows.norm[..n], m, &mut rows.q[..n]);
    let scores = &mut rows.scores[..ls];
    for r in 0..m {
        for h in 0..cattn.n_heads {
            let off = h * dh;
            scores.fill(0.0);
            let q = &rows.q[r * d + off..r * d + off + dh];
            matmul_row(q, &cross.kt.as_slice()[off * ls..], ls, scores);
            for s in scores.iter_mut() {
                *s *= scale;
            }
            softmax_row(scores);
            let out = &mut rows.heads[r * d + off..r * d + off + dh];
            out.fill(0.0);
            matmul_row(scores, &cross.v.as_slice()[off..], d, out);
        }
    }
    cattn
        .wo
        .forward_into(&rows.heads[..n], m, &mut rows.proj[..n]);
    add_assign(&mut rows.x[..n], &rows.proj[..n]);

    // Feed-forward.
    let hidden = &mut rows.hidden[..m * layer.ff.l1.b.shape().1];
    layer.ln3.forward_into(&rows.x[..n], &mut rows.norm[..n]);
    layer.ff.l1.forward_into(&rows.norm[..n], m, hidden);
    for v in hidden.iter_mut() {
        *v = gelu_scalar(*v);
    }
    layer.ff.l2.forward_into(hidden, m, &mut rows.proj[..n]);
    add_assign(&mut rows.x[..n], &rows.proj[..n]);
}

/// `Σ_k q[k]·k_row[k]` from `0.0`, `k` ascending, zero `q[k]` skipped: the
/// op sequence `matmul_row` runs for one entry of `q · Kᵀ`.
#[inline]
fn dot_zero_skip(q: &[f32], k_row: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&a, &k) in q.iter().zip(k_row) {
        if a != 0.0 {
            acc += a * k;
        }
    }
    acc
}

/// `x += y` element-wise (the residual add, `Tensor::add`'s op).
fn add_assign(x: &mut [f32], y: &[f32]) {
    for (a, &b) in x.iter_mut().zip(y) {
        *a += b;
    }
}
