//! Incremental KV-cached decoding with batched candidate lanes
//! (DESIGN.md §11).
//!
//! The training path decodes a whole `(T, d_model)` prefix per call, which
//! makes autoregressive generation O(T²) layer passes. This module is the
//! inference path: the encoder memory is processed **once** per source
//! ([`EncodedSource`]), each candidate ("lane") keeps per-layer key/value
//! caches of everything it has decoded so far, and one [`BatchDecoder::step`]
//! appends one token per lane, costing a single row of matmuls per lane plus
//! one batched pass through the projections.
//!
//! **Bit-identity contract.** Logits produced here are bit-identical to the
//! full autograd [`Seq2SeqTransformer::decode`] over the same prefix:
//!
//! * Every projection/normalization/activation runs the same shared kernel
//!   as the `Var` graph (`Linear::forward_tensor`, `LayerNorm::forward_tensor`,
//!   `funcs::gelu_scalar`, `Tensor::matmul`'s row kernel) — same float ops,
//!   same order, row-locally.
//! * Causal masking needs no mask here: in the full decode, masked scores
//!   get `-1e9` added, underflow to exactly `0.0` through the f32
//!   `exp`, contribute exactly nothing to the softmax normalizer (adding
//!   `+0.0` to a finite accumulator is the identity), and are then skipped
//!   by the zero-skip matmul kernel. Attending over the truncated cache is
//!   therefore the same computation.
//!
//! The equivalence suite in `tests/decode_equivalence.rs` pins both claims
//! with `.to_bits()` assertions.

use crate::model::{DecoderLayer, MultiHeadAttention, Seq2SeqTransformer};
use linalg::RowArena;
use neural::funcs::gelu_scalar;
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

/// Cross-attention context of one decoder layer.
struct CrossCtx {
    /// Per head: transposed keys `(d_head, Ls)` — exactly
    /// `wk(memory).slice_cols(h·d_head, d_head).transpose()`.
    kt: Vec<Tensor>,
    /// Per head: values `(Ls, d_head)`.
    v: Vec<Tensor>,
}

impl EncodedSource {
    pub(crate) fn from_framed(model: &Seq2SeqTransformer, framed_src: &[usize]) -> Self {
        let memory = model.encode(framed_src).value();
        let cross = model
            .dec_layers
            .iter()
            .map(|layer| {
                let attn = &layer.cross_attn;
                let k = attn.wk.forward_tensor(&memory);
                let v = attn.wv.forward_tensor(&memory);
                let dh = attn.d_head;
                CrossCtx {
                    kt: (0..attn.n_heads)
                        .map(|h| k.slice_cols(h * dh, dh).transpose())
                        .collect(),
                    v: (0..attn.n_heads).map(|h| v.slice_cols(h * dh, dh)).collect(),
                }
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
    fn new(layers: usize, d_model: usize) -> Self {
        Lane {
            len: 0,
            k: (0..layers).map(|_| RowArena::new(d_model)).collect(),
            v: (0..layers).map(|_| RowArena::new(d_model)).collect(),
        }
    }
}

/// Lockstep incremental decoder over any number of candidate lanes sharing
/// one [`EncodedSource`].
pub struct BatchDecoder<'m> {
    model: &'m Seq2SeqTransformer,
    src: &'m EncodedSource,
    lanes: Vec<Lane>,
}

impl<'m> BatchDecoder<'m> {
    /// A decoder with `n_lanes` empty lanes against `src`.
    pub fn new(model: &'m Seq2SeqTransformer, src: &'m EncodedSource, n_lanes: usize) -> Self {
        let layers = model.dec_layers.len();
        let d = model.config().d_model;
        BatchDecoder {
            model,
            src,
            lanes: (0..n_lanes).map(|_| Lane::new(layers, d)).collect(),
        }
    }

    /// Feeds one token into each listed lane and returns the
    /// `(feeds.len(), vocab)` next-token logits, row `r` for `feeds[r]`.
    ///
    /// Each lane may appear at most once per step. Row `r` is bit-identical
    /// to the last row of `Seq2SeqTransformer::decode` over that lane's full
    /// prefix (see the module docs for why).
    pub fn step(&mut self, feeds: &[(usize, usize)]) -> Tensor {
        assert!(!feeds.is_empty(), "step needs at least one (lane, token) feed");
        debug_assert!(
            {
                let mut seen: Vec<usize> = feeds.iter().map(|&(l, _)| l).collect();
                seen.sort_unstable();
                seen.windows(2).all(|w| w[0] != w[1])
            },
            "a lane was fed twice in one step"
        );
        let model = self.model;
        let cfg = model.config();
        let d = cfg.d_model;
        let m = feeds.len();

        // Embed each lane's new token, mirroring `embed`: table lookup,
        // scale by sqrt(d_model), add the token's positional row.
        let mut e = Tensor::zeros(m, d);
        {
            let w = model.embed_tgt.w.data();
            for (r, &(lane, tok)) in feeds.iter().enumerate() {
                assert!(tok < w.rows(), "token {tok} out of vocab");
                assert!(
                    self.lanes[lane].len < cfg.max_len,
                    "lane {lane} exceeded max_len {}",
                    cfg.max_len
                );
                e.row_mut(r).copy_from_slice(w.row(tok));
            }
        }
        let e = e.scale((d as f32).sqrt());
        let mut pos = Tensor::zeros(m, d);
        for (r, &(lane, _)) in feeds.iter().enumerate() {
            pos.row_mut(r).copy_from_slice(model.pos.row(self.lanes[lane].len));
        }
        let mut x = e.add(&pos);

        for (li, layer) in model.dec_layers.iter().enumerate() {
            x = step_layer(layer, &self.src.cross[li], &mut self.lanes, feeds, li, x);
        }

        let n = model.ln_final.forward_tensor(&x);
        let logits = model.out_proj.forward_tensor(&n);
        for &(lane, _) in feeds {
            self.lanes[lane].len += 1;
        }
        obs::counter("decode.kv_cache_steps", m as u64);
        logits
    }
}

/// One decoder layer over the `(m, d_model)` batch of new rows: batched
/// projections, per-lane cached self-attention, shared cross-attention.
fn step_layer(
    layer: &DecoderLayer,
    cross: &CrossCtx,
    lanes: &mut [Lane],
    feeds: &[(usize, usize)],
    li: usize,
    x: Tensor,
) -> Tensor {
    let (m, d) = x.shape();

    // Causal self-attention: project the new rows in one batch, then attend
    // each lane's row against its own cache.
    let attn = &layer.self_attn;
    let n = layer.ln1.forward_tensor(&x);
    let q = attn.wq.forward_tensor(&n);
    let k_new = attn.wk.forward_tensor(&n);
    let v_new = attn.wv.forward_tensor(&n);
    let mut heads_out = Tensor::zeros(m, d);
    for (r, &(lane, _)) in feeds.iter().enumerate() {
        let lane = &mut lanes[lane];
        lane.k[li].push_row(k_new.row(r));
        lane.v[li].push_row(v_new.row(r));
        let qrow = Tensor::from_vec(1, d, q.row(r).to_vec());
        let a = attn_row(attn, &qrow, &lane.k[li], &lane.v[li]);
        heads_out.row_mut(r).copy_from_slice(a.row(0));
    }
    let a = attn.wo.forward_tensor(&heads_out);
    let x = x.add(&a);

    // Cross-attention: every lane shares the precomputed memory K/V, so the
    // whole batch goes through each head at once (row-local, bit-identical
    // to per-lane).
    let cattn = &layer.cross_attn;
    let n2 = layer.ln2.forward_tensor(&x);
    let q2 = cattn.wq.forward_tensor(&n2);
    let scale = 1.0 / (cattn.d_head as f32).sqrt();
    let mut heads = Vec::with_capacity(cattn.n_heads);
    for h in 0..cattn.n_heads {
        let qs = q2.slice_cols(h * cattn.d_head, cattn.d_head);
        let scores = qs.matmul(&cross.kt[h]).scale(scale);
        let attnw = scores.softmax_rows();
        heads.push(attnw.matmul(&cross.v[h]));
    }
    let refs: Vec<&Tensor> = heads.iter().collect();
    let c = cattn.wo.forward_tensor(&Tensor::concat_cols(&refs));
    let x = x.add(&c);

    // Feed-forward.
    let n3 = layer.ln3.forward_tensor(&x);
    let h1 = layer.ff.l1.forward_tensor(&n3).map(gelu_scalar);
    let f = layer.ff.l2.forward_tensor(&h1);
    x.add(&f)
}

/// Single-row multi-head self-attention of `q` against a lane's KV cache.
fn attn_row(
    attn: &MultiHeadAttention,
    q: &Tensor,
    kc: &RowArena<f32>,
    vc: &RowArena<f32>,
) -> Tensor {
    let dh = attn.d_head;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut heads = Vec::with_capacity(attn.n_heads);
    for h in 0..attn.n_heads {
        let qs = q.slice_cols(h * dh, dh);
        let ks = head_slice(kc, h * dh, dh);
        let vs = head_slice(vc, h * dh, dh);
        let scores = qs.matmul(&ks.transpose()).scale(scale);
        let attnw = scores.softmax_rows();
        heads.push(attnw.matmul(&vs));
    }
    let refs: Vec<&Tensor> = heads.iter().collect();
    Tensor::concat_cols(&refs)
}

/// Columns `[start, start+width)` of a cache, as a `(rows, width)` tensor —
/// the values `Tensor::slice_cols` would produce on the full cache.
fn head_slice(a: &RowArena<f32>, start: usize, width: usize) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), width);
    for r in 0..a.rows() {
        out.row_mut(r).copy_from_slice(&a.row(r)[start..start + width]);
    }
    out
}
