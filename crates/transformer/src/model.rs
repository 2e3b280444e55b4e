//! The Vaswani-style encoder–decoder transformer, built on `neural`.

use crate::decode::{BatchDecoder, EncodedSource};
use crate::vocab::{BOS, EOS, PAD};
use neural::io::{read_tensor, write_tensor};
use neural::layers::{Embedding, Linear, Module};
use neural::{Tensor, Var};
use persist::{Persist, Reader, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Transformer hyperparameters.
#[derive(Debug, Clone)]
pub struct TransformerConfig {
    /// Vocabulary size (character vocab + specials).
    pub vocab: usize,
    /// Model width `d_model`.
    pub d_model: usize,
    /// Number of attention heads.
    pub n_heads: usize,
    /// Encoder layer count.
    pub n_enc_layers: usize,
    /// Decoder layer count.
    pub n_dec_layers: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Maximum sequence length (positional table size).
    pub max_len: usize,
}

impl TransformerConfig {
    /// The paper's configuration (Section VII "Settings"): hidden dimension
    /// 256, 3 encoder/decoder layers, 8 heads. Character tokens.
    pub fn paper(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 256,
            n_heads: 8,
            n_enc_layers: 3,
            n_dec_layers: 3,
            d_ff: 512,
            max_len: 256,
        }
    }

    /// A CPU-friendly configuration used by tests and the default benches.
    pub fn tiny(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 32,
            n_heads: 2,
            n_enc_layers: 1,
            n_dec_layers: 1,
            d_ff: 64,
            max_len: 96,
        }
    }
}

/// Multi-head scaled dot-product attention.
///
/// Fields are crate-visible so the KV-cached inference path
/// (`crate::decode`) can run the same projections graph-free.
pub(crate) struct MultiHeadAttention {
    pub(crate) wq: Linear,
    pub(crate) wk: Linear,
    pub(crate) wv: Linear,
    pub(crate) wo: Linear,
    pub(crate) n_heads: usize,
    pub(crate) d_head: usize,
}

impl MultiHeadAttention {
    fn new<R: Rng + ?Sized>(d_model: usize, n_heads: usize, rng: &mut R) -> Self {
        assert_eq!(d_model % n_heads, 0, "d_model must be divisible by heads");
        MultiHeadAttention {
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            n_heads,
            d_head: d_model / n_heads,
        }
    }

    /// `q_in`: `(Lq, d)`, `k_in`/`v_in`: `(Lk, d)`, optional additive mask
    /// `(Lq, Lk)` (0 = attend, -1e9 = blocked).
    fn forward(&self, q_in: &Var, kv_in: &Var, mask: Option<&Tensor>) -> Var {
        let q = self.wq.forward(q_in);
        let k = self.wk.forward(kv_in);
        let v = self.wv.forward(kv_in);
        let scale = 1.0 / (self.d_head as f32).sqrt();
        let mut heads = Vec::with_capacity(self.n_heads);
        for h in 0..self.n_heads {
            let qs = q.slice_cols(h * self.d_head, self.d_head);
            let ks = k.slice_cols(h * self.d_head, self.d_head);
            let vs = v.slice_cols(h * self.d_head, self.d_head);
            let mut scores = qs.matmul(&ks.transpose()).scale(scale);
            if let Some(m) = mask {
                scores = scores.add_mask(m);
            }
            let attn = scores.softmax_rows();
            heads.push(attn.matmul(&vs));
        }
        let concat = Var::concat_cols(&heads);
        self.wo.forward(&concat)
    }
}

impl Module for MultiHeadAttention {
    fn parameters(&self) -> Vec<Var> {
        [&self.wq, &self.wk, &self.wv, &self.wo]
            .iter()
            .flat_map(|l| l.parameters())
            .collect()
    }
}

pub(crate) struct FeedForward {
    pub(crate) l1: Linear,
    pub(crate) l2: Linear,
}

impl FeedForward {
    fn new<R: Rng + ?Sized>(d_model: usize, d_ff: usize, rng: &mut R) -> Self {
        FeedForward {
            l1: Linear::new(d_model, d_ff, rng),
            l2: Linear::new(d_ff, d_model, rng),
        }
    }

    fn forward(&self, x: &Var) -> Var {
        self.l2.forward(&self.l1.forward(x).gelu())
    }
}

impl Module for FeedForward {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.l1.parameters();
        p.extend(self.l2.parameters());
        p
    }
}

struct EncoderLayer {
    attn: MultiHeadAttention,
    ff: FeedForward,
    ln1: neural::layers::LayerNorm,
    ln2: neural::layers::LayerNorm,
}

impl EncoderLayer {
    fn new<R: Rng + ?Sized>(cfg: &TransformerConfig, rng: &mut R) -> Self {
        EncoderLayer {
            attn: MultiHeadAttention::new(cfg.d_model, cfg.n_heads, rng),
            ff: FeedForward::new(cfg.d_model, cfg.d_ff, rng),
            ln1: neural::layers::LayerNorm::new(cfg.d_model),
            ln2: neural::layers::LayerNorm::new(cfg.d_model),
        }
    }

    fn forward(&self, x: &Var) -> Var {
        // Pre-norm residual blocks (more stable for small models).
        let a = self.attn.forward(&self.ln1.forward(x), &self.ln1.forward(x), None);
        let x = x.add(&a);
        let f = self.ff.forward(&self.ln2.forward(&x));
        x.add(&f)
    }
}

impl Module for EncoderLayer {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.attn.parameters();
        p.extend(self.ff.parameters());
        p.extend(self.ln1.parameters());
        p.extend(self.ln2.parameters());
        p
    }
}

pub(crate) struct DecoderLayer {
    pub(crate) self_attn: MultiHeadAttention,
    pub(crate) cross_attn: MultiHeadAttention,
    pub(crate) ff: FeedForward,
    pub(crate) ln1: neural::layers::LayerNorm,
    pub(crate) ln2: neural::layers::LayerNorm,
    pub(crate) ln3: neural::layers::LayerNorm,
}

impl DecoderLayer {
    fn new<R: Rng + ?Sized>(cfg: &TransformerConfig, rng: &mut R) -> Self {
        DecoderLayer {
            self_attn: MultiHeadAttention::new(cfg.d_model, cfg.n_heads, rng),
            cross_attn: MultiHeadAttention::new(cfg.d_model, cfg.n_heads, rng),
            ff: FeedForward::new(cfg.d_model, cfg.d_ff, rng),
            ln1: neural::layers::LayerNorm::new(cfg.d_model),
            ln2: neural::layers::LayerNorm::new(cfg.d_model),
            ln3: neural::layers::LayerNorm::new(cfg.d_model),
        }
    }

    fn forward(&self, x: &Var, memory: &Var, causal_mask: &Tensor) -> Var {
        let n = self.ln1.forward(x);
        let a = self.self_attn.forward(&n, &n, Some(causal_mask));
        let x = x.add(&a);
        let c = self
            .cross_attn
            .forward(&self.ln2.forward(&x), memory, None);
        let x = x.add(&c);
        let f = self.ff.forward(&self.ln3.forward(&x));
        x.add(&f)
    }
}

impl Module for DecoderLayer {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.self_attn.parameters();
        p.extend(self.cross_attn.parameters());
        p.extend(self.ff.parameters());
        p.extend(self.ln1.parameters());
        p.extend(self.ln2.parameters());
        p.extend(self.ln3.parameters());
        p
    }
}

/// The encoder–decoder transformer for character string synthesis.
pub struct Seq2SeqTransformer {
    pub(crate) cfg: TransformerConfig,
    embed_src: Embedding,
    pub(crate) embed_tgt: Embedding,
    pub(crate) pos: Tensor,
    enc_layers: Vec<EncoderLayer>,
    pub(crate) dec_layers: Vec<DecoderLayer>,
    pub(crate) ln_final: neural::layers::LayerNorm,
    pub(crate) out_proj: Linear,
}

impl Seq2SeqTransformer {
    /// Builds a freshly initialized model.
    pub fn new<R: Rng + ?Sized>(cfg: TransformerConfig, rng: &mut R) -> Self {
        let pos = sinusoidal_positions(cfg.max_len, cfg.d_model);
        Seq2SeqTransformer {
            embed_src: Embedding::new(cfg.vocab, cfg.d_model, rng),
            embed_tgt: Embedding::new(cfg.vocab, cfg.d_model, rng),
            enc_layers: (0..cfg.n_enc_layers)
                .map(|_| EncoderLayer::new(&cfg, rng))
                .collect(),
            dec_layers: (0..cfg.n_dec_layers)
                .map(|_| DecoderLayer::new(&cfg, rng))
                .collect(),
            ln_final: neural::layers::LayerNorm::new(cfg.d_model),
            out_proj: Linear::new(cfg.d_model, cfg.vocab, rng),
            pos,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    fn embed(&self, table: &Embedding, ids: &[usize]) -> Var {
        let ids: Vec<usize> = ids.iter().take(self.cfg.max_len).copied().collect();
        let e = table.forward(&ids).scale((self.cfg.d_model as f32).sqrt());
        let mut pos = Tensor::zeros(ids.len(), self.cfg.d_model);
        for r in 0..ids.len() {
            pos.row_mut(r).copy_from_slice(self.pos.row(r));
        }
        e.add(&Var::constant(pos))
    }

    /// Encodes framed source ids into a memory of shape `(L, d_model)`.
    pub fn encode(&self, src_ids: &[usize]) -> Var {
        let mut h = self.embed(&self.embed_src, src_ids);
        for layer in &self.enc_layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Decodes target-input ids against the encoder memory, returning
    /// `(L, vocab)` logits.
    pub fn decode(&self, tgt_ids: &[usize], memory: &Var) -> Var {
        let l = tgt_ids.len().min(self.cfg.max_len);
        let mask = causal_mask(l);
        let mut h = self.embed(&self.embed_tgt, tgt_ids);
        for layer in &self.dec_layers {
            h = layer.forward(&h, memory, &mask);
        }
        self.out_proj.forward(&self.ln_final.forward(&h))
    }

    /// Teacher-forced training loss for one `(src, tgt)` pair of *unframed*
    /// token id sequences. Returns a scalar `Var`.
    pub fn loss(&self, src: &[usize], tgt: &[usize]) -> Var {
        let src_framed = frame(src);
        // Decoder input: BOS + tgt; targets: tgt + EOS.
        let mut dec_in = Vec::with_capacity(tgt.len() + 1);
        dec_in.push(BOS);
        dec_in.extend_from_slice(tgt);
        let mut targets = tgt.to_vec();
        targets.push(EOS);
        // Truncate both to max_len consistently.
        let l = dec_in.len().min(self.cfg.max_len);
        let memory = self.encode(&src_framed);
        let logits = self.decode(&dec_in[..l], &memory);
        logits.cross_entropy_logits(&targets[..l], Some(PAD))
    }

    /// Encodes an *unframed* source once for reuse across candidates and
    /// retries (frames it internally, like the generators do).
    pub fn encode_source(&self, src: &[usize]) -> EncodedSource {
        EncodedSource::from_framed(self, &frame(src))
    }

    /// Decodes `n` independent temperature-sampled candidates in lockstep
    /// against one encoded source. Each candidate draws from its own RNG
    /// lane seeded up front from `rng`, so the batch is reproducible and
    /// each candidate is independent of the others (see `generate_lanes`).
    pub fn generate_batch<R: Rng + ?Sized>(
        &self,
        enc: &EncodedSource,
        n: usize,
        max_out: usize,
        temperature: f32,
        rng: &mut R,
    ) -> Vec<Vec<usize>> {
        let seeds: Vec<u64> = (0..n).map(|_| rng.gen::<u64>()).collect();
        self.generate_lanes(enc, &seeds, max_out, temperature)
    }

    /// Lockstep batched decoding with one explicit RNG seed per lane, using
    /// temperature sampling (`temperature <= 0` means argmax). Lane `i`
    /// feeds `BOS`, then each token it samples from
    /// `StdRng::seed_from_u64(seeds[i])`, and stops at `EOS` or `max_out`
    /// tokens; its output (without specials) does not depend on the other
    /// lanes.
    pub fn generate_lanes(
        &self,
        enc: &EncodedSource,
        seeds: &[u64],
        max_out: usize,
        temperature: f32,
    ) -> Vec<Vec<usize>> {
        let n = seeds.len();
        if n == 0 {
            return Vec::new();
        }
        let limit = max_out.min(self.cfg.max_len - 1);
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let mut dec = BatchDecoder::new(self, enc, n, limit);
        let mut outs: Vec<Vec<usize>> = vec![Vec::new(); n];
        // The live lanes with the token each feeds next, in lane order;
        // lanes that emit EOS drop out in place.
        let mut feeds: Vec<(usize, usize)> = (0..n).map(|lane| (lane, BOS)).collect();
        let mut probs = Vec::with_capacity(self.cfg.vocab);
        for _ in 0..limit {
            if feeds.is_empty() {
                break;
            }
            let logits = dec.step(&feeds);
            let mut live = 0;
            for (r, row) in logits.chunks_exact(self.cfg.vocab).enumerate() {
                let lane = feeds[r].0;
                let id = sample_from_logits(row, temperature, &mut rngs[lane], &mut probs);
                if id == EOS {
                    continue;
                }
                outs[lane].push(id);
                feeds[live] = (lane, id);
                live += 1;
            }
            feeds.truncate(live);
        }
        outs
    }
}

impl Module for Seq2SeqTransformer {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.embed_src.parameters();
        p.extend(self.embed_tgt.parameters());
        for l in &self.enc_layers {
            p.extend(l.parameters());
        }
        for l in &self.dec_layers {
            p.extend(l.parameters());
        }
        p.extend(self.ln_final.parameters());
        p.extend(self.out_proj.parameters());
        p
    }
}

/// Caps on persisted architecture hyperparameters: a config outside these
/// bounds cannot come from this workspace and would drive absurd allocations.
const MAX_ARCH_DIM: usize = 1 << 16;
const MAX_ARCH_LAYERS: usize = 64;

impl Persist for Seq2SeqTransformer {
    const MAGIC: &'static str = "serd-transformer-v1";

    fn write_body(&self, w: &mut Writer) {
        w.kv("vocab", self.cfg.vocab);
        w.kv("d_model", self.cfg.d_model);
        w.kv("n_heads", self.cfg.n_heads);
        w.kv("n_enc_layers", self.cfg.n_enc_layers);
        w.kv("n_dec_layers", self.cfg.n_dec_layers);
        w.kv("d_ff", self.cfg.d_ff);
        w.kv("max_len", self.cfg.max_len);
        let params = self.parameters();
        w.kv("params", params.len());
        for p in &params {
            write_tensor(w, "p", &p.value());
        }
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let cfg = TransformerConfig {
            vocab: r.kv_usize("vocab")?,
            d_model: r.kv_usize("d_model")?,
            n_heads: r.kv_usize("n_heads")?,
            n_enc_layers: r.kv_usize("n_enc_layers")?,
            n_dec_layers: r.kv_usize("n_dec_layers")?,
            d_ff: r.kv_usize("d_ff")?,
            max_len: r.kv_usize("max_len")?,
        };
        // Pre-validate everything `Seq2SeqTransformer::new` (and the layers
        // underneath it) would otherwise assert on.
        if cfg.vocab < 4 || cfg.vocab > MAX_ARCH_DIM {
            return Err(r.invalid(format!("implausible vocab size {}", cfg.vocab)));
        }
        if cfg.d_model == 0 || cfg.d_model > MAX_ARCH_DIM {
            return Err(r.invalid(format!("implausible d_model {}", cfg.d_model)));
        }
        if cfg.n_heads == 0 || cfg.d_model % cfg.n_heads != 0 {
            return Err(r.invalid(format!(
                "d_model {} not divisible by n_heads {}",
                cfg.d_model, cfg.n_heads
            )));
        }
        if cfg.n_enc_layers > MAX_ARCH_LAYERS || cfg.n_dec_layers > MAX_ARCH_LAYERS {
            return Err(r.invalid("implausible layer count"));
        }
        if cfg.d_ff == 0 || cfg.d_ff > MAX_ARCH_DIM {
            return Err(r.invalid(format!("implausible d_ff {}", cfg.d_ff)));
        }
        if cfg.max_len < 2 || cfg.max_len > MAX_ARCH_DIM {
            return Err(r.invalid(format!("implausible max_len {}", cfg.max_len)));
        }
        let declared = r.kv_usize("params")?;
        // The architecture is rebuilt with a throwaway RNG, then every
        // parameter tensor is overwritten from the artifact.
        // `Module::parameters` returns leaves in a stable order, so the file
        // order matches the model order.
        let model = Seq2SeqTransformer::new(cfg, &mut StdRng::seed_from_u64(0));
        let params = model.parameters();
        if declared != params.len() {
            return Err(r.invalid(format!(
                "declared {declared} parameter tensors, architecture has {}",
                params.len()
            )));
        }
        for (i, p) in params.iter().enumerate() {
            let t = read_tensor(r, "p")?;
            if t.shape() != p.shape() {
                return Err(r.invalid(format!(
                    "parameter {i}: shape {:?} does not match architecture {:?}",
                    t.shape(),
                    p.shape()
                )));
            }
            p.set_value(t);
        }
        Ok(model)
    }
}

/// Wraps unframed token ids in `BOS … EOS`, the framing every encoder input
/// uses (training, generation, and the KV-cached inference path).
pub fn frame(ids: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(ids.len() + 2);
    out.push(BOS);
    out.extend_from_slice(ids);
    out.push(EOS);
    out
}

/// `(max_len, d_model)` sinusoidal positional table.
fn sinusoidal_positions(max_len: usize, d_model: usize) -> Tensor {
    let mut t = Tensor::zeros(max_len, d_model);
    for p in 0..max_len {
        for i in 0..d_model {
            let exponent = (2 * (i / 2)) as f32 / d_model as f32;
            let angle = p as f32 / 10000f32.powf(exponent);
            let v = if i % 2 == 0 { angle.sin() } else { angle.cos() };
            t.set(p, i, v);
        }
    }
    t
}

/// `(l, l)` additive causal mask: 0 on/below diagonal, -1e9 above.
///
/// Masks are memoized per thread by length — generation used to rebuild the
/// same O(l²) tensor on every decode call. Lengths above the cache cap fall
/// back to a fresh build so a single oversized request can't pin memory.
fn causal_mask(l: usize) -> Rc<Tensor> {
    const CACHE_MAX_LEN: usize = 512;
    thread_local! {
        static MASKS: RefCell<Vec<Option<Rc<Tensor>>>> = RefCell::new(Vec::new());
    }
    if l > CACHE_MAX_LEN {
        return Rc::new(build_causal_mask(l));
    }
    MASKS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() <= l {
            cache.resize(l + 1, None);
        }
        cache[l]
            .get_or_insert_with(|| Rc::new(build_causal_mask(l)))
            .clone()
    })
}

fn build_causal_mask(l: usize) -> Tensor {
    let mut m = Tensor::zeros(l, l);
    for r in 0..l {
        for c in (r + 1)..l {
            m.set(r, c, -1e9);
        }
    }
    m
}

/// Temperature sampling over a logit row; `temperature <= 0` means argmax.
/// `PAD` and `BOS` are never emitted. `probs` is scratch space, reused
/// across calls.
fn sample_from_logits<R: Rng + ?Sized>(
    logits: &[f32],
    temperature: f32,
    rng: &mut R,
    probs: &mut Vec<f32>,
) -> usize {
    let forbidden = |i: usize| i == PAD || i == BOS;
    if temperature <= 0.0 {
        return logits
            .iter()
            .enumerate()
            .filter(|(i, _)| !forbidden(*i))
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(EOS);
    }
    probs.clear();
    probs.extend(logits.iter().enumerate().map(|(i, &v)| {
        if forbidden(i) {
            f32::NEG_INFINITY
        } else {
            v / temperature
        }
    }));
    let m = probs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for v in probs.iter_mut() {
        *v = (*v - m).exp();
    }
    let z: f32 = probs.iter().sum();
    let mut u: f32 = rng.gen::<f32>() * z;
    for (i, &e) in probs.iter().enumerate() {
        if u < e {
            return i;
        }
        u -= e;
    }
    EOS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::CharVocab;
    use neural::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_flow_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TransformerConfig::tiny(20);
        let model = Seq2SeqTransformer::new(cfg, &mut rng);
        let memory = model.encode(&[BOS, 4, 5, 6, 7, EOS]);
        assert_eq!(memory.shape(), (6, 32));
        let logits = model.decode(&[1, 4, 5], &memory);
        assert_eq!(logits.shape(), (3, 20));
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = Seq2SeqTransformer::new(TransformerConfig::tiny(20), &mut rng);
        let loss = model.loss(&[4, 5, 6], &[5, 6, 7]);
        let v = loss.data().get(0, 0);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn can_memorize_identity_mapping() {
        // A tiny copy task: the model should learn to echo short sequences.
        let mut rng = StdRng::seed_from_u64(7);
        let vocab = CharVocab::build(["abcd"]);
        let model = Seq2SeqTransformer::new(TransformerConfig::tiny(vocab.len()), &mut rng);
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = ["ab", "cd", "ad", "bc"]
            .iter()
            .map(|s| (vocab.encode(s, false), vocab.encode(s, false)))
            .collect();
        let mut opt = Adam::new(model.parameters(), 3e-3);
        for _ in 0..150 {
            for (src, tgt) in &pairs {
                let loss = model.loss(src, tgt);
                loss.backward();
                opt.step();
            }
        }
        let enc = model.encode_source(&vocab.encode("ab", false));
        let out = model.generate_lanes(&enc, &[rng.gen()], 8, 0.0).remove(0);
        assert_eq!(vocab.decode(&out), "ab");
    }

    #[test]
    fn generate_respects_max_out() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Seq2SeqTransformer::new(TransformerConfig::tiny(20), &mut rng);
        let enc = model.encode_source(&[4, 5]);
        let out = model.generate_lanes(&enc, &[rng.gen()], 5, 1.0).remove(0);
        assert!(out.len() <= 5);
        assert!(out.iter().all(|&id| id != PAD && id != BOS));
    }

    #[test]
    fn causal_mask_shape() {
        let m = causal_mask(3);
        assert_eq!(m.get(0, 1), -1e9);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn sampling_argmax_vs_temperature() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut probs = Vec::new();
        let logits = vec![0.0, 0.0, 0.1, 0.0, 5.0, 1.0];
        assert_eq!(sample_from_logits(&logits, 0.0, &mut rng, &mut probs), 4);
        // High temperature still never emits PAD/BOS.
        for _ in 0..50 {
            let id = sample_from_logits(&logits, 10.0, &mut rng, &mut probs);
            assert!(id != PAD && id != BOS);
        }
    }

    #[test]
    fn positional_table_values() {
        let pos = sinusoidal_positions(4, 4);
        assert_eq!(pos.get(0, 0), 0.0); // sin(0)
        assert_eq!(pos.get(0, 1), 1.0); // cos(0)
        assert!((pos.get(1, 0) - 1f32.sin()).abs() < 1e-6);
    }
}
