//! The bucketed model family `M_1..M_k` with DP-SGD training and
//! candidate-reranking inference (paper Section VI, Algorithm 1, Figure 4).

use crate::decode::EncodedSource;
use crate::guided::{
    gram_keys, jaccard_keys, perturb_toward, perturb_toward_keys, GramScratch, SearchLimits,
    TokenPool,
};
use crate::model::{Seq2SeqTransformer, TransformerConfig};
use crate::vocab::CharVocab;
use neural::layers::Module;
use neural::optim::DpSgd;
use persist::{Persist, Reader, Writer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration for training the bucketed synthesizer.
#[derive(Debug, Clone)]
pub struct BucketedSynthesizerConfig {
    /// Number of similarity intervals `k` (paper default: 10).
    pub buckets: usize,
    /// Candidate outputs sampled per inference (paper default: 10).
    pub candidates: usize,
    /// Architecture template; the vocabulary size is filled in at training.
    pub arch: fn(usize) -> TransformerConfig,
    /// Training epochs over each bucket's pair set.
    pub epochs: usize,
    /// DP-SGD minibatch size `J`.
    pub batch_size: usize,
    /// Learning rate `η`.
    pub lr: f32,
    /// Gradient clipping bound `V` (Algorithm 1).
    pub clip: f32,
    /// Gaussian noise multiplier `σ` (Algorithm 1). Set 0 to train non-DP.
    pub sigma: f32,
    /// Cap on training pairs per bucket (corpus pairing is quadratic).
    pub max_pairs_per_bucket: usize,
    /// Maximum characters of generated strings.
    pub max_out: usize,
    /// Sampling temperature for candidate generation.
    pub temperature: f32,
    /// If the best candidate misses the target similarity by more than this,
    /// run guided repair (DESIGN.md §3.4).
    pub repair_tol: f64,
}

impl Default for BucketedSynthesizerConfig {
    fn default() -> Self {
        BucketedSynthesizerConfig {
            buckets: 10,
            candidates: 10,
            arch: TransformerConfig::tiny,
            epochs: 2,
            batch_size: 8,
            lr: 2e-3,
            clip: 1.0,
            sigma: 0.6,
            max_pairs_per_bucket: 200,
            max_out: 64,
            temperature: 0.8,
            repair_tol: 0.15,
        }
    }
}

impl BucketedSynthesizerConfig {
    /// A minimal configuration for unit tests (tiny corpus, one epoch).
    pub fn test_tiny() -> Self {
        BucketedSynthesizerConfig {
            buckets: 3,
            candidates: 3,
            epochs: 1,
            max_pairs_per_bucket: 12,
            ..Default::default()
        }
    }
}

/// Training pairs per bucket on which the fit-time probe runs S2's
/// candidate step (see [`BucketedSynthesizer::train`]).
const PROBE_SOURCES: usize = 4;

/// Probe sources that must return a candidate for a bucket model to be kept.
const PROBE_MIN_HITS: usize = 2;

/// Seed of the probe's RNG, mixed with the bucket index: the probe draws
/// nothing from the fit RNG, so it leaves every other fitted byte as is.
const PROBE_SEED: u64 = 0x5e4d_0b5e_7a11_0000;

/// The probe's verdict on one model from its per-source hits, in probe
/// order: kept iff at least [`PROBE_MIN_HITS`] of them hit. Reads no further
/// than the deciding hit.
fn probe_keeps(hits: impl IntoIterator<Item = bool>) -> bool {
    hits.into_iter().filter(|&hit| hit).take(PROBE_MIN_HITS).count() == PROBE_MIN_HITS
}

/// Consecutive rounds without a strict improvement after which S2's repair
/// stops (DESIGN.md §3 item 7). Training-pair seeding keeps searching.
const STALL_ROUNDS: usize = 32;

/// The trained family of per-bucket transformers for one textual column.
pub struct BucketedSynthesizer {
    cfg: BucketedSynthesizerConfig,
    vocab: CharVocab,
    models: Vec<Option<Seq2SeqTransformer>>,
    pool: TokenPool,
    epsilon_spent: f64,
}

impl BucketedSynthesizer {
    /// Trains `k` bucket models on the background corpus of one column.
    ///
    /// Pair construction follows the paper: corpus strings are enumerated in
    /// pairs, their 3-gram Jaccard similarity computed, and each pair lands
    /// in the bucket containing its similarity. Sparse buckets are topped up
    /// with guided-perturbation pairs so every model has data. When
    /// `cfg.sigma > 0`, models are trained with DP-SGD and the total ε at
    /// δ = 1e-5 is recorded.
    ///
    /// Each trained model is then probed: S2's candidate step runs on the
    /// bucket's first [`PROBE_SOURCES`] training pairs `(s, t)` at target
    /// `jaccard(s, t)`. A model for which fewer than [`PROBE_MIN_HITS`]
    /// probes yield a candidate S2 would return is dropped (persisted as
    /// `model absent`), so S2 goes straight to repair for its bucket instead
    /// of decoding candidates it almost never uses. ε still counts the
    /// dropped models' training.
    pub fn train<R: Rng + ?Sized>(
        background: &[String],
        cfg: BucketedSynthesizerConfig,
        rng: &mut R,
    ) -> Self {
        let _span = obs::span("transformer.train");
        let vocab = CharVocab::build(background.iter().map(String::as_str));
        let pool = TokenPool::from_corpus(background.iter().map(String::as_str));
        let mut buckets = build_training_pairs(background, &cfg, &pool, rng);

        let mut models = Vec::with_capacity(cfg.buckets);
        let mut epsilon_spent = 0.0f64;
        for (idx, pairs) in buckets.iter_mut().enumerate() {
            if pairs.is_empty() {
                models.push(None);
                continue;
            }
            let model = Seq2SeqTransformer::new((cfg.arch)(vocab.len()), rng);
            let eps = train_one_model(&model, pairs, &vocab, &cfg, idx, rng);
            epsilon_spent = epsilon_spent.max(eps);
            models.push(Some(model));
        }
        obs::gauge("transformer.epsilon", epsilon_spent);
        let mut syn = BucketedSynthesizer { cfg, vocab, models, pool, epsilon_spent };
        syn.drop_unused_models(&buckets);
        syn
    }

    /// The fit-time probe of [`BucketedSynthesizer::train`]: drops every
    /// bucket model that returns too few candidates on its probe sources.
    fn drop_unused_models(&mut self, buckets: &[Vec<(String, String)>]) {
        let _span = obs::span("transformer.probe");
        let (mut kept, mut dropped) = (0u64, 0u64);
        for (b, pairs) in buckets.iter().enumerate() {
            if self.models[b].is_none() {
                continue;
            }
            if self.probe(b, pairs) {
                kept += 1;
            } else {
                self.models[b] = None;
                dropped += 1;
            }
        }
        obs::counter("text.models_kept", kept);
        obs::counter("text.models_dropped", dropped);
    }

    /// Whether S2's candidate step returns a candidate from bucket `b`'s
    /// model for enough of its first [`PROBE_SOURCES`] training pairs
    /// ([`probe_keeps`]).
    fn probe(&self, b: usize, pairs: &[(String, String)]) -> bool {
        let mut rng = StdRng::seed_from_u64(PROBE_SEED ^ b as u64);
        probe_keeps(pairs.iter().take(PROBE_SOURCES).map(|(s, t)| {
            // A pair lands in the bucket of this score, so `prepare` picks
            // model `b` (or an exact copy, which uses no model).
            let target = jaccard_keys(&gram_keys(s), &gram_keys(t));
            let prepared = self.prepare(s, target);
            debug_assert!(prepared.exact || self.bucket_of(target) == b);
            prepared.candidate(&mut rng).is_some()
        }))
    }

    /// Index of the bucket containing `sim`.
    pub fn bucket_of(&self, sim: f64) -> usize {
        bucket_index(sim, self.cfg.buckets)
    }

    /// The `(ε)` at δ=1e-5 spent training (max over bucket models; each model
    /// sees disjoint training pairs, so parallel composition applies).
    pub fn epsilon(&self) -> f64 {
        self.epsilon_spent
    }

    /// The character vocabulary.
    pub fn vocab(&self) -> &CharVocab {
        &self.vocab
    }

    /// Synthesizes `s'` with `qgram_jaccard(s, s', 3) ≈ sim` (paper Figure 4
    /// inference): picks the bucket model, samples candidates, returns the
    /// candidate closest to the target; falls back to guided perturbation
    /// when the model is missing or the best candidate misses by more than
    /// `repair_tol`.
    ///
    /// Equivalent to `self.prepare(s, sim).synthesize(rng)`; callers that
    /// retry the same `(s, sim)` should hold a [`PreparedSynthesis`] instead
    /// so the encoder memory and source tokenization are reused.
    pub fn synthesize<R: Rng + ?Sized>(&self, s: &str, sim: f64, rng: &mut R) -> String {
        self.prepare(s, sim).synthesize(rng)
    }

    /// Precomputes everything about `(s, sim)` that candidate sampling
    /// reuses: bucket-model selection, source encoding, encoder memory
    /// (including per-layer cross-attention projections), the source token
    /// set for the plausibility gate, and the source's sorted 3-gram keys
    /// that candidate scoring and every retry's repair merge against.
    pub fn prepare<'a>(&'a self, s: &str, sim: f64) -> PreparedSynthesis<'a> {
        let target = sim.clamp(0.0, 1.0);
        let exact = target >= 0.999;
        let model = if exact {
            None
        } else {
            self.models[self.bucket_of(target)].as_ref().map(|model| {
                let src = self.vocab.encode(s, false);
                PreparedModel {
                    model,
                    enc: model.encode_source(&src),
                    src_tokens: similarity::tokenize(s).into_iter().collect(),
                }
            })
        };
        let source_keys = if exact { Vec::new() } else { gram_keys(s) };
        PreparedSynthesis { syn: self, source: s.to_string(), source_keys, target, exact, model }
    }
}

/// Bucket-model state shared by every candidate and retry for one source.
struct PreparedModel<'a> {
    model: &'a Seq2SeqTransformer,
    enc: EncodedSource,
    src_tokens: std::collections::HashSet<String>,
}

/// A `(source, target-similarity)` synthesis context with the per-source
/// work hoisted out of the sampling loop. Each [`PreparedSynthesis::synthesize`]
/// call decodes all candidates in one lockstep batch ([`Seq2SeqTransformer::generate_batch`])
/// against the shared encoder memory.
pub struct PreparedSynthesis<'a> {
    syn: &'a BucketedSynthesizer,
    source: String,
    /// Sorted 3-gram keys of `source` (empty for an exact copy).
    source_keys: Vec<u64>,
    target: f64,
    exact: bool,
    model: Option<PreparedModel<'a>>,
}

impl PreparedSynthesis<'_> {
    /// Samples candidates and returns the one whose similarity to the source
    /// lands closest to the target (with the plausibility gate and guided
    /// repair of [`BucketedSynthesizer::synthesize`]).
    pub fn synthesize<R: Rng + ?Sized>(&self, rng: &mut R) -> String {
        if self.exact {
            return self.source.clone();
        }
        self.candidate(rng).unwrap_or_else(|| self.repair(rng))
    }

    /// S2's candidate step: decodes `cfg.candidates` lanes from the bucket
    /// model and returns the plausible candidate closest to the target, if
    /// it lands within `repair_tol`. `None` when there is no model (nothing
    /// is drawn from `rng` then) or no candidate qualifies. The fit-time
    /// probe runs this same step.
    fn candidate<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<String> {
        let pm = self.model.as_ref()?;
        let syn = self.syn;
        let sim = self.target;
        let _span = obs::span("text.generate");
        let (n, max_out, temperature) = (syn.cfg.candidates, syn.cfg.max_out, syn.cfg.temperature);
        let candidates = pm.model.generate_batch(&pm.enc, n, max_out, temperature, rng);
        let mut scratch = GramScratch::default();
        let mut best: Option<(String, f64)> = None;
        let mut gate_rejected = 0u64;
        for ids in &candidates {
            let out = syn.vocab.decode(ids);
            // A candidate must look like domain text: most of its tokens
            // come from the background pool or the source string. A small
            // CPU-trained model can hit the target similarity with character
            // soup; this gate keeps Table-I-style semantics (DESIGN.md §3.4).
            let tokens = similarity::tokenize(&out);
            let plausible = !tokens.is_empty()
                && tokens
                    .iter()
                    .filter(|t| syn.pool.contains(t) || pm.src_tokens.contains(*t))
                    .count() as f64
                    / tokens.len() as f64
                    >= 0.8;
            if !plausible {
                gate_rejected += 1;
                continue;
            }
            let achieved = jaccard_keys(&self.source_keys, scratch.load(&out));
            if best.as_ref().map_or(true, |(_, b)| (achieved - sim).abs() < (b - sim).abs()) {
                best = Some((out, achieved));
            }
        }
        obs::counter("text.candidates", candidates.len() as u64);
        obs::counter("text.gate_rejected", gate_rejected);
        best.filter(|(_, achieved)| (achieved - sim).abs() <= syn.cfg.repair_tol)
            .map(|(out, _)| out)
    }

    /// Guided repair of the source toward the target (DESIGN.md §3 item 7),
    /// under [`PreparedSynthesis::repair_limits`].
    fn repair<R: Rng + ?Sized>(&self, rng: &mut R) -> String {
        let _span = obs::span("text.repair");
        obs::counter("text.repairs", 1);
        let limits = self.repair_limits();
        let search = perturb_toward_keys(
            &self.source,
            &self.source_keys,
            self.target,
            &self.syn.pool,
            limits,
            rng,
        );
        obs::counter("text.repair_rounds", search.rounds as u64);
        let miss = (search.sim - self.target).abs();
        obs::hist("text.repair_miss", miss);
        let unconverged = miss > limits.tol;
        obs::counter("text.repair_unconverged", u64::from(unconverged));
        obs::counter("text.repair_stalled", u64::from(search.stalled));
        search.text
    }

    /// Repair stops within 0.03 of the target, after 300 rounds, or after
    /// [`STALL_ROUNDS`] rounds in a row without improving, and no proposal
    /// grows past [`PreparedSynthesis::max_repair_chars`].
    fn repair_limits(&self) -> SearchLimits {
        SearchLimits {
            tol: 0.03,
            max_rounds: 300,
            max_chars: self.max_repair_chars(),
            stall_rounds: STALL_ROUNDS,
        }
    }

    /// Repair's length bound: the decoder's own output limit, or the
    /// source's length if longer. S2 draws its sources from the synthetic
    /// tables, and repair lowers similarity mostly by appending pool tokens,
    /// so without a bound lengths would compound from one S2 generation to
    /// the next.
    fn max_repair_chars(&self) -> usize {
        self.syn.cfg.max_out.max(self.source.chars().count())
    }
}

/// Upper bound on persisted bucket counts.
const MAX_PERSISTED_BUCKETS: usize = 4096;

/// Upper bound on persisted candidate counts (the paper samples 10): each
/// candidate is one decoding lane with its own seed and KV caches.
const MAX_PERSISTED_CANDIDATES: usize = 1024;

impl Persist for BucketedSynthesizer {
    // The version marks the sampling stream: weights and semantics are
    // unchanged across versions, but same-seed outputs differ.
    // v2: candidate sampling moved to lockstep batched decoding with
    // per-candidate RNG lanes, which changes how the caller's RNG stream is
    // consumed.
    // v3: repair skips proposals longer than `max_repair_chars`. The same
    // version brings the fit-time probe, which persists models S2 would
    // never take a candidate from as absent.
    // v4: repair stops after `STALL_ROUNDS` rounds without improving, which
    // leaves the caller's RNG where the shorter search left it.
    const MAGIC: &'static str = "serd-text-v4";

    fn write_body(&self, w: &mut Writer) {
        // `cfg.arch` is a training-time template (a fn pointer) and is not
        // serialized; every persisted bucket model carries its own full
        // `TransformerConfig` instead.
        w.kv("buckets", self.cfg.buckets);
        w.kv("candidates", self.cfg.candidates);
        w.kv("epochs", self.cfg.epochs);
        w.kv("batch_size", self.cfg.batch_size);
        w.kv_f32("lr", self.cfg.lr);
        w.kv_f32("clip", self.cfg.clip);
        w.kv_f32("sigma", self.cfg.sigma);
        w.kv("max_pairs_per_bucket", self.cfg.max_pairs_per_bucket);
        w.kv("max_out", self.cfg.max_out);
        w.kv_f32("temperature", self.cfg.temperature);
        w.kv_f64("repair_tol", self.cfg.repair_tol);
        w.kv_f64("epsilon", self.epsilon_spent);
        w.child(&self.vocab);
        w.child(&self.pool);
        w.kv("models", self.models.len());
        for m in &self.models {
            match m {
                Some(model) => {
                    w.kv("model", "present");
                    w.child(model);
                }
                None => w.kv("model", "absent"),
            }
        }
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let buckets = r.kv_usize("buckets")?;
        if buckets == 0 || buckets > MAX_PERSISTED_BUCKETS {
            return Err(r.invalid(format!("implausible bucket count {buckets}")));
        }
        let candidates = r.kv_usize("candidates")?;
        if candidates > MAX_PERSISTED_CANDIDATES {
            return Err(r.invalid(format!("implausible candidate count {candidates}")));
        }
        let cfg = BucketedSynthesizerConfig {
            buckets,
            candidates,
            // Training-only template; synthesis never calls it. Bucket model
            // architectures are read from their own artifacts below.
            arch: TransformerConfig::tiny,
            epochs: r.kv_usize("epochs")?,
            batch_size: r.kv_usize("batch_size")?,
            lr: r.kv_finite_f32("lr")?,
            clip: r.kv_finite_f32("clip")?,
            sigma: r.kv_finite_f32("sigma")?,
            max_pairs_per_bucket: r.kv_usize("max_pairs_per_bucket")?,
            max_out: r.kv_usize("max_out")?,
            temperature: r.kv_finite_f32("temperature")?,
            repair_tol: r.kv_finite_f64("repair_tol")?,
        };
        let epsilon_spent = r.kv_finite_f64("epsilon")?;
        if epsilon_spent < 0.0 {
            return Err(r.invalid(format!("negative epsilon {epsilon_spent}")));
        }
        let vocab: CharVocab = r.child()?;
        let pool: TokenPool = r.child()?;
        let k = r.kv_usize("models")?;
        if k != buckets {
            return Err(r.invalid(format!("{k} models for {buckets} buckets")));
        }
        let mut models = Vec::with_capacity(k);
        for i in 0..k {
            let tag = r.kv("model")?.trim().to_string();
            match tag.as_str() {
                "absent" => models.push(None),
                "present" => {
                    let model: Seq2SeqTransformer = r.child()?;
                    // A vocab-size mismatch would send out-of-range ids into
                    // the embedding lookup at synthesis time.
                    if model.config().vocab != vocab.len() {
                        return Err(r.invalid(format!(
                            "bucket {i}: model vocab {} != vocabulary size {}",
                            model.config().vocab,
                            vocab.len()
                        )));
                    }
                    models.push(Some(model));
                }
                other => {
                    return Err(r.invalid(format!("unknown model tag {other:?}")));
                }
            }
        }
        Ok(BucketedSynthesizer { cfg, vocab, models, pool, epsilon_spent })
    }
}

/// Maps a similarity in `[0, 1]` to one of `k` equal-width buckets.
pub fn bucket_index(sim: f64, k: usize) -> usize {
    let k = k.max(1);
    ((sim.clamp(0.0, 1.0) * k as f64) as usize).min(k - 1)
}

/// Enumerates corpus pairs into similarity buckets, topping up sparse
/// buckets with guided-perturbation pairs.
fn build_training_pairs<R: Rng + ?Sized>(
    background: &[String],
    cfg: &BucketedSynthesizerConfig,
    pool: &TokenPool,
    rng: &mut R,
) -> Vec<Vec<(String, String)>> {
    let mut buckets: Vec<Vec<(String, String)>> = vec![Vec::new(); cfg.buckets];
    // Natural pairs (sampled, not exhaustive: the corpus can be large).
    let n = background.len();
    let (mut keys_a, mut keys_b) = (GramScratch::default(), GramScratch::default());
    let budget = (cfg.max_pairs_per_bucket * cfg.buckets * 4).min(n.saturating_mul(n));
    for _ in 0..budget {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i == j {
            continue;
        }
        let (a, b) = (&background[i], &background[j]);
        let sim = jaccard_keys(keys_a.load(a), keys_b.load(b));
        let idx = bucket_index(sim, cfg.buckets);
        if buckets[idx].len() < cfg.max_pairs_per_bucket {
            buckets[idx].push((a.clone(), b.clone()));
        }
    }
    // Top up sparse buckets with synthetic pairs at the bucket's center.
    let min_fill = (cfg.max_pairs_per_bucket / 2).max(4);
    for (idx, bucket) in buckets.iter_mut().enumerate() {
        let center = (idx as f64 + 0.5) / cfg.buckets as f64;
        let mut guard = 0;
        while bucket.len() < min_fill && guard < min_fill * 8 {
            guard += 1;
            let s = &background[rng.gen_range(0..n)];
            let (t, achieved) = perturb_toward(s, center, pool, 0.04, 200, rng);
            if bucket_index(achieved, cfg.buckets) == idx {
                bucket.push((s.clone(), t));
            }
        }
    }
    buckets
}

/// Trains one bucket model with (DP-)SGD; returns ε at δ = 1e-5 (0 if non-DP).
fn train_one_model<R: Rng + ?Sized>(
    model: &Seq2SeqTransformer,
    pairs: &mut [(String, String)],
    vocab: &CharVocab,
    cfg: &BucketedSynthesizerConfig,
    bucket: usize,
    rng: &mut R,
) -> f64 {
    let q = (cfg.batch_size as f64 / pairs.len().max(1) as f64).min(1.0);
    let sigma = if cfg.sigma > 0.0 { cfg.sigma } else { 1e-6 };
    let mut opt = DpSgd::new(model.parameters(), cfg.lr, cfg.clip, sigma, q);
    let encoded: Vec<(Vec<usize>, Vec<usize>)> = pairs
        .iter()
        .map(|(s, t)| (vocab.encode(s, false), vocab.encode(t, false)))
        .collect();
    let mut order: Vec<usize> = (0..encoded.len()).collect();
    // Per-epoch mean loss, buffered and published as one trajectory.
    let mut epoch_losses: Vec<f64> = Vec::new();
    for _ in 0..cfg.epochs {
        order.shuffle(rng);
        let mut loss_sum = 0.0f64;
        let mut loss_n = 0u64;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let mut batch = Vec::with_capacity(chunk.len());
            for &i in chunk {
                let (src, tgt) = &encoded[i];
                if src.is_empty() || tgt.is_empty() {
                    continue;
                }
                let loss = model.loss(src, tgt);
                loss.backward();
                if obs::enabled() {
                    loss_sum += loss.value().get(0, 0) as f64;
                    loss_n += 1;
                }
                batch.push(opt.take_example_grads());
            }
            if !batch.is_empty() {
                opt.step(&batch, rng);
            }
        }
        if loss_n > 0 {
            epoch_losses.push(loss_sum / loss_n as f64);
        }
    }
    obs::series_extend(&format!("train.loss.bucket{bucket}"), &epoch_losses);
    if cfg.sigma > 0.0 {
        opt.epsilon(1e-5)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use similarity::qgram_jaccard;

    fn corpus() -> Vec<String> {
        [
            "adaptive query processing",
            "query optimization in databases",
            "parallel join algorithms",
            "frequent pattern mining",
            "stream processing systems",
            "temporal data management",
            "adaptive query optimization",
            "parallel query processing",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0.0, 10), 0);
        assert_eq!(bucket_index(0.05, 10), 0);
        assert_eq!(bucket_index(0.1, 10), 1);
        assert_eq!(bucket_index(1.0, 10), 9);
        assert_eq!(bucket_index(2.0, 10), 9);
        assert_eq!(bucket_index(-1.0, 10), 0);
    }

    #[test]
    fn training_pairs_fill_every_bucket() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = BucketedSynthesizerConfig::test_tiny();
        let bg = corpus();
        let pool = TokenPool::from_corpus(bg.iter().map(String::as_str));
        let buckets = build_training_pairs(&bg, &cfg, &pool, &mut rng);
        assert_eq!(buckets.len(), 3);
        for (i, b) in buckets.iter().enumerate() {
            assert!(!b.is_empty(), "bucket {i} empty");
            // Pairs actually belong to their bucket.
            for (s, t) in b {
                let sim = qgram_jaccard(s, t, 3);
                assert_eq!(bucket_index(sim, 3), i, "pair ({s:?}, {t:?}) sim {sim}");
            }
        }
    }

    #[test]
    fn synthesize_hits_target_similarity() {
        let mut rng = StdRng::seed_from_u64(1);
        let syn = BucketedSynthesizer::train(
            &corpus(),
            BucketedSynthesizerConfig::test_tiny(),
            &mut rng,
        );
        let s = "adaptive query processing for modern systems";
        for target in [0.1, 0.5, 0.9] {
            let out = syn.synthesize(s, target, &mut rng);
            let sim = qgram_jaccard(s, &out, 3);
            assert!(
                (sim - target).abs() < 0.25,
                "target {target} achieved {sim} via {out:?}"
            );
        }
    }

    #[test]
    fn synthesize_exact_copy_for_sim_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let syn = BucketedSynthesizer::train(
            &corpus(),
            BucketedSynthesizerConfig::test_tiny(),
            &mut rng,
        );
        assert_eq!(syn.synthesize("hello world", 1.0, &mut rng), "hello world");
    }

    #[test]
    fn dp_training_records_epsilon() {
        let mut rng = StdRng::seed_from_u64(3);
        let syn = BucketedSynthesizer::train(
            &corpus(),
            BucketedSynthesizerConfig::test_tiny(),
            &mut rng,
        );
        assert!(syn.epsilon() > 0.0, "eps {}", syn.epsilon());
        assert!(syn.epsilon().is_finite());
    }

    #[test]
    fn persist_roundtrip_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(6);
        let syn = BucketedSynthesizer::train(
            &corpus(),
            BucketedSynthesizerConfig::test_tiny(),
            &mut rng,
        );
        let text = syn.to_persist_string();
        let back = BucketedSynthesizer::from_persist_str(&text).unwrap();
        assert_eq!(back.epsilon().to_bits(), syn.epsilon().to_bits());
        // Same RNG stream + same weights ⇒ identical synthesis.
        let s = "adaptive query processing for modern systems";
        for target in [0.2, 0.6, 0.95] {
            let mut r1 = StdRng::seed_from_u64(77);
            let mut r2 = StdRng::seed_from_u64(77);
            assert_eq!(syn.synthesize(s, target, &mut r1), back.synthesize(s, target, &mut r2));
        }
        // Re-serialization is byte-identical (stable writer ordering).
        assert_eq!(back.to_persist_string(), text);
    }

    #[test]
    fn persist_rejects_model_count_mismatch() {
        let mut rng = StdRng::seed_from_u64(8);
        let syn = BucketedSynthesizer::train(
            &corpus(),
            BucketedSynthesizerConfig::test_tiny(),
            &mut rng,
        );
        let text = syn.to_persist_string().replace("models 3", "models 2");
        assert!(BucketedSynthesizer::from_persist_str(&text).is_err());
    }

    #[test]
    fn persist_bounds_the_candidate_count() {
        let mut rng = StdRng::seed_from_u64(9);
        let syn =
            BucketedSynthesizer::train(&corpus(), BucketedSynthesizerConfig::test_tiny(), &mut rng);
        let text = syn.to_persist_string();
        let with = |n: usize| text.replace("candidates 3", &format!("candidates {n}"));
        assert!(BucketedSynthesizer::from_persist_str(&with(MAX_PERSISTED_CANDIDATES)).is_ok());
        assert!(
            BucketedSynthesizer::from_persist_str(&with(MAX_PERSISTED_CANDIDATES + 1)).is_err()
        );
    }

    #[test]
    fn probe_drops_models_and_their_buckets_draw_no_lane_seeds() {
        // The DP-trained tiny models emit character soup the gate rejects.
        let mut rng = StdRng::seed_from_u64(10);
        let syn =
            BucketedSynthesizer::train(&corpus(), BucketedSynthesizerConfig::test_tiny(), &mut rng);
        assert!(syn.models.iter().all(Option::is_none), "a DP-trained tiny model was kept");
        assert!(syn.epsilon() > 0.0, "ε must still count the dropped models' training");
        let text = syn.to_persist_string();
        assert_eq!(text.matches("model absent").count(), 3);
        assert!(!text.contains("serd-transformer-v1"), "dropped weights were persisted");
        // With no model, S2's step is repair alone: the same output from the
        // same draws, so the caller's stream is where repair leaves it.
        let s = "adaptive query processing for modern systems";
        for target in [0.1, 0.5, 0.9] {
            let prepared = syn.prepare(s, target);
            let (mut r1, mut r2) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            let out = prepared.synthesize(&mut r1);
            let limits = prepared.repair_limits();
            let want = perturb_toward_keys(s, &gram_keys(s), target, &syn.pool, limits, &mut r2);
            assert_eq!(out, want.text, "target {target}");
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "lane seeds drawn at target {target}");
        }
    }

    #[test]
    fn probe_keeps_a_model_that_reproduces_its_training_strings() {
        // One phrase, trained non-DP for many epochs: the low bucket's model
        // learns its few training targets, which are pool tokens only.
        let phrase = "golden dragon diner";
        let cfg = BucketedSynthesizerConfig {
            buckets: 2,
            sigma: 0.0,
            epochs: 80,
            lr: 0.1,
            max_pairs_per_bucket: 4,
            temperature: 0.3,
            ..BucketedSynthesizerConfig::test_tiny()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let syn = BucketedSynthesizer::train(&vec![phrase.to_string(); 8], cfg, &mut rng);
        assert!(syn.models[0].is_some(), "a model that reproduces its targets was dropped");
        let present = syn.to_persist_string().matches("model present").count();
        assert_eq!(present, syn.models.iter().flatten().count());
        // S2 returns that model's candidate: `synthesize` draws exactly the
        // candidate step's lane seeds and no repair follows.
        let prepared = syn.prepare(phrase, 0.25);
        let (mut r1, mut r2) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let out = prepared.synthesize(&mut r1);
        let candidate = prepared.candidate(&mut r2).expect("the kept model's candidate");
        assert_eq!(out, candidate);
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        assert!((qgram_jaccard(phrase, &out, 3) - 0.25).abs() <= syn.cfg.repair_tol, "{out:?}");
    }

    #[test]
    fn probe_keeps_a_model_on_two_hits_of_four() {
        // `n` hits, placed last so an early-stopping rule would miss them.
        let hits = |n: usize| (0..PROBE_SOURCES).map(move |k| k >= PROBE_SOURCES - n);
        assert!(!probe_keeps(hits(0)));
        assert!(!probe_keeps(hits(1)));
        assert!(probe_keeps(hits(2)));
        assert!(probe_keeps(hits(4)));
        // The verdict reads no probe past its deciding hit.
        let mut read = 0;
        assert!(probe_keeps(hits(4).inspect(|_| read += 1)));
        assert_eq!(read, PROBE_MIN_HITS);
    }

    #[test]
    fn stalled_repair_ends_after_stall_rounds_and_returns_the_source() {
        // "ab" is one padded gram key, so every proposal scores 0 against
        // it (no pool token is "ab"): none moves the similarity from 1
        // toward 0.5, and the search can only stall.
        let mut rng = StdRng::seed_from_u64(13);
        let syn =
            BucketedSynthesizer::train(&corpus(), BucketedSynthesizerConfig::test_tiny(), &mut rng);
        let (s, target) = ("ab", 0.5);
        let prepared = syn.prepare(s, target);
        let limits = prepared.repair_limits();
        let stalled = perturb_toward_keys(s, &gram_keys(s), target, &syn.pool, limits, &mut rng);
        assert_eq!(stalled.text, s);
        assert!(stalled.stalled);
        assert_eq!(stalled.rounds, STALL_ROUNDS);
        // S2's step for this bucket is that repair.
        assert_eq!(prepared.synthesize(&mut rng), s);
        // Without the stall rule, as training-pair seeding searches, it runs
        // every round to the same string.
        let unbounded = SearchLimits { stall_rounds: usize::MAX, ..limits };
        let full = perturb_toward_keys(s, &gram_keys(s), target, &syn.pool, unbounded, &mut rng);
        assert_eq!((full.text.as_str(), full.rounds, full.stalled), (s, limits.max_rounds, false));
        // The rule counts rounds since the last improvement, not in total:
        // this search improves often enough to run 72 rounds to an exact hit.
        let (s, target) = ("adaptive query processing for modern systems", 0.6);
        let exact = SearchLimits { tol: 0.0, ..syn.prepare(s, target).repair_limits() };
        let mut rng = StdRng::seed_from_u64(8);
        let long = perturb_toward_keys(s, &gram_keys(s), target, &syn.pool, exact, &mut rng);
        assert!(long.rounds > 2 * STALL_ROUNDS && !long.stalled, "{long:?}");
        assert_eq!(long.sim, target);
    }

    #[test]
    fn chained_repairs_never_exceed_the_length_bound() {
        // S2 draws its sources from its own output, and repair meets low
        // targets mostly by appending pool tokens, so unbounded lengths
        // compound along a chain. The unbounded chain shows the bound binds;
        // it draws from its own stream, so how many draws the bounded
        // chain's repairs take cannot decide whether it does.
        let mut rng = StdRng::seed_from_u64(12);
        let syn =
            BucketedSynthesizer::train(&corpus(), BucketedSynthesizerConfig::test_tiny(), &mut rng);
        let mut unbounded_rng = rng.clone();
        let start = "adaptive query processing".to_string();
        let (mut bounded, mut unbounded) = (start.clone(), start);
        let mut longest_unbounded = 0;
        for generation in 0..30 {
            let target = [0.05, 0.2, 0.35][generation % 3];
            let bound = syn.cfg.max_out.max(bounded.chars().count());
            bounded = syn.synthesize(&bounded, target, &mut rng);
            let len = bounded.chars().count();
            assert!(len <= bound, "generation {generation}: {len} chars > {bound}: {bounded:?}");
            assert!(len <= syn.cfg.max_out, "generation {generation}: {bounded:?}");
            unbounded =
                perturb_toward(&unbounded, target, &syn.pool, 0.03, 300, &mut unbounded_rng).0;
            longest_unbounded = longest_unbounded.max(unbounded.chars().count());
        }
        assert!(longest_unbounded > syn.cfg.max_out, "longest unbounded {longest_unbounded}");
    }

    #[test]
    fn non_dp_training_reports_zero_epsilon() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = BucketedSynthesizerConfig {
            sigma: 0.0,
            ..BucketedSynthesizerConfig::test_tiny()
        };
        let syn = BucketedSynthesizer::train(&corpus(), cfg, &mut rng);
        assert_eq!(syn.epsilon(), 0.0);
    }
}
