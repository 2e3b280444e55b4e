//! Corpus-guided deterministic string perturbation.
//!
//! Two roles (DESIGN.md §3.4):
//!
//! 1. **Training-pair seeding.** Background corpora pair strings by their
//!    natural similarities; some buckets (e.g. `[0.6, 0.7)`) can be sparse.
//!    [`perturb_toward`] manufactures a partner at any target similarity, so
//!    every bucket model has training data.
//! 2. **Candidate repair.** A small CPU-trained transformer sometimes misses
//!    the target similarity; the bucketed synthesizer repairs the best
//!    candidate with a few guided edits instead of rejecting outright.
//!
//! The perturbation alternates token-level edits — dropping tokens of `s`,
//! appending/substituting tokens drawn from the corpus vocabulary — greedily
//! keeping the edit that moves the 3-gram Jaccard similarity closest to the
//! target, so outputs remain domain-plausible (corpus tokens only). Each
//! proposal is scored by an exact packed-key 3-gram kernel, bit-equal to
//! `similarity::qgram_jaccard` (DESIGN.md §3 item 7). Tokens keep their
//! original case and punctuation: the 3-gram similarity is case-sensitive,
//! and a lowercased copy of a mixed-case source would cap the reachable
//! similarity well below 1.

use persist::{Persist, Reader, Writer};
use rand::seq::SliceRandom;
use rand::Rng;
use similarity::tokenize;
use std::collections::BTreeSet;

/// A pool of domain tokens harvested from a background corpus.
#[derive(Debug, Clone)]
pub struct TokenPool {
    /// Original-case tokens (deduplicated case-insensitively).
    tokens: Vec<String>,
    /// Lowercased token set for plausibility membership checks.
    lower: BTreeSet<String>,
}

impl TokenPool {
    /// Harvests the distinct tokens of the corpus, preserving their case.
    pub fn from_corpus<'a>(corpus: impl IntoIterator<Item = &'a str>) -> Self {
        let mut lower = BTreeSet::new();
        let mut tokens = Vec::new();
        for s in corpus {
            for t in s.split_whitespace() {
                let key = t.to_lowercase();
                if !key.chars().any(char::is_alphanumeric) {
                    continue;
                }
                if lower.insert(key) {
                    tokens.push(t.to_string());
                }
            }
        }
        if tokens.is_empty() {
            tokens.push("item".to_string());
            lower.insert("item".to_string());
        }
        TokenPool { tokens, lower }
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// A random token (original case).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &str {
        self.tokens.choose(rng).map(String::as_str).unwrap_or("item")
    }

    /// Whether the pool contains this token (case-insensitive; punctuation
    /// is stripped the same way [`similarity::tokenize`] does).
    pub fn contains(&self, token: &str) -> bool {
        self.lower.contains(&token.to_lowercase())
            || tokenize(token)
                .iter()
                .all(|t| self.lower.contains(t))
    }

    /// Fraction of `s`'s tokens that are pool tokens — a cheap plausibility
    /// score for model-generated candidates.
    pub fn plausibility(&self, s: &str) -> f64 {
        let tokens = tokenize(s);
        if tokens.is_empty() {
            return 0.0;
        }
        tokens.iter().filter(|t| self.lower.contains(*t)).count() as f64 / tokens.len() as f64
    }

    /// The distinct tokens in harvest order (original case).
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }
}

/// Upper bound on persisted pool size.
const MAX_PERSISTED_TOKENS: usize = 1 << 22;

impl Persist for TokenPool {
    const MAGIC: &'static str = "serd-pool-v1";

    fn write_body(&self, w: &mut Writer) {
        w.kv("tokens", self.tokens.len());
        for t in &self.tokens {
            w.kv_str("t", t);
        }
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let n = r.kv_usize("tokens")?;
        if n == 0 || n > MAX_PERSISTED_TOKENS {
            return Err(r.invalid(format!("implausible token count {n}")));
        }
        let mut tokens = Vec::with_capacity(n);
        let mut lower = BTreeSet::new();
        for _ in 0..n {
            let t = r.kv_str("t")?;
            // `from_corpus` invariants: whitespace-free, contains an
            // alphanumeric, unique case-insensitively.
            if t.is_empty() || t.chars().any(char::is_whitespace) {
                return Err(r.invalid(format!("malformed pool token {t:?}")));
            }
            let key = t.to_lowercase();
            if !key.chars().any(char::is_alphanumeric) {
                return Err(r.invalid(format!("non-alphanumeric pool token {t:?}")));
            }
            if !lower.insert(key) {
                return Err(r.invalid(format!("duplicate pool token {t:?}")));
            }
            tokens.push(t);
        }
        Ok(TokenPool { tokens, lower })
    }
}

/// Pad lane of a string shorter than 3 chars: above `char::MAX`
/// (`0x10_FFFF`), so no char takes it and a short string's key never equals
/// a 3-gram's.
const PAD: u64 = 0x1F_FFFF;

/// Packs three 21-bit char lanes into one gram key.
fn pack(a: u64, b: u64, c: u64) -> u64 {
    a << 42 | b << 21 | c
}

/// Reusable buffers of the exact 3-gram kernel: one string's chars and its
/// sorted gram keys.
///
/// Each 3-char window packs into a `u64`; a string shorter than 3 chars is
/// one whole-string key padded with [`PAD`]. The keys are therefore the
/// multiset `similarity::qgram_profile(s, 3)` holds, one exact integer per
/// gram, and [`jaccard_keys`] over two of them is bit-equal to
/// `similarity::qgram_jaccard(a, b, 3)` with no hashing and no collisions.
#[derive(Debug, Default)]
pub(crate) struct GramScratch {
    chars: Vec<char>,
    keys: Vec<u64>,
}

impl GramScratch {
    /// Loads `tokens.join(" ")` without building that string; returns its
    /// sorted keys.
    pub(crate) fn load_joined<'t>(&mut self, tokens: impl IntoIterator<Item = &'t str>) -> &[u64] {
        self.chars.clear();
        for (k, t) in tokens.into_iter().enumerate() {
            if k > 0 {
                self.chars.push(' ');
            }
            self.chars.extend(t.chars());
        }
        self.keys.clear();
        match self.chars[..] {
            [] => {}
            [a] => self.keys.push(pack(a as u64, PAD, PAD)),
            [a, b] => self.keys.push(pack(a as u64, b as u64, PAD)),
            _ => self.keys.extend(
                self.chars.windows(3).map(|w| pack(w[0] as u64, w[1] as u64, w[2] as u64)),
            ),
        }
        self.keys.sort_unstable();
        &self.keys
    }

    /// Loads `s`; returns its sorted keys.
    pub(crate) fn load(&mut self, s: &str) -> &[u64] {
        self.load_joined([s])
    }
}

/// The sorted 3-gram keys of `s` (see [`GramScratch`]).
pub(crate) fn gram_keys(s: &str) -> Vec<u64> {
    let mut scratch = GramScratch::default();
    scratch.load(s);
    scratch.keys
}

/// Multiset Jaccard of two sorted key lists: a merge whose intersection and
/// totals are exact integers, finished with `QgramProfile::jaccard`'s float
/// operations in the same order, so the result is bit-equal.
pub(crate) fn jaccard_keys(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let inter = inter as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// One proposed token edit: `tokens[at..at + removed]` becomes `inserted`.
#[derive(Debug, Clone, Copy)]
struct Edit<'a> {
    at: usize,
    removed: usize,
    inserted: Option<&'a str>,
}

impl<'a> Edit<'a> {
    /// The edited token sequence, without materializing it.
    fn tokens<'s>(self, tokens: &'s [&'a str]) -> impl Iterator<Item = &'a str> + 's {
        tokens[..self.at]
            .iter()
            .copied()
            .chain(self.inserted)
            .chain(tokens[self.at + self.removed..].iter().copied())
    }

    fn apply(self, tokens: &mut Vec<&'a str>) {
        tokens.splice(self.at..self.at + self.removed, self.inserted);
    }

    /// Chars of the edited sequence joined with single spaces, given
    /// `joined`, the chars of `tokens` joined that way. Edits never empty a
    /// sequence, so each token counts its chars plus one separator.
    fn joined_chars(self, tokens: &[&str], joined: usize) -> usize {
        let width = |t: &str| t.chars().count() + 1;
        let removed: usize = tokens[self.at..self.at + self.removed].iter().map(|t| width(t)).sum();
        joined + self.inserted.map_or(0, width) - removed
    }
}

/// Synthesizes `s'` from `s` with 3-gram Jaccard similarity close to
/// `target`, using only tokens of `s` and of the `pool`.
///
/// Greedy local search: propose `width` random single edits per round
/// (drop/append/replace a token), keep the best, stop when within `tol` or
/// after `max_rounds` rounds. Returns the best string found and its achieved
/// similarity.
pub fn perturb_toward<'a, R: Rng + ?Sized>(
    s: &'a str,
    target: f64,
    pool: &'a TokenPool,
    tol: f64,
    max_rounds: usize,
    rng: &mut R,
) -> (String, f64) {
    let limits = SearchLimits { tol, max_rounds, max_chars: usize::MAX, stall_rounds: usize::MAX };
    let search = perturb_toward_keys(s, &gram_keys(s), target, pool, limits, rng);
    (search.text, search.sim)
}

/// When a guided search stops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SearchLimits {
    /// Stop once the similarity is within `tol` of the target.
    pub tol: f64,
    /// Stop after this many rounds.
    pub max_rounds: usize,
    /// Skip a proposal whose joined text would exceed this many chars
    /// (`usize::MAX`: no bound).
    pub max_chars: usize,
    /// Stop after this many consecutive rounds without a strict improvement
    /// (`usize::MAX`: never).
    pub stall_rounds: usize,
}

/// The outcome of [`perturb_toward_keys`].
#[derive(Debug)]
pub(crate) struct Search {
    /// The best string found.
    pub text: String,
    /// Its similarity to the source.
    pub sim: f64,
    /// Rounds run.
    pub rounds: usize,
    /// Whether [`SearchLimits::stall_rounds`] ended the search.
    pub stalled: bool,
}

/// [`perturb_toward`] against `source`, the [`gram_keys`] of `s`, built once
/// by the caller, under `limits`. Each proposal is scored from its edit over
/// the current tokens, written into one reused char buffer; only the winning
/// edit of a round is applied, and only if it strictly improves. Every score
/// is bit-equal to `qgram_jaccard(s, &candidate.join(" "), 3)`.
///
/// A proposal longer than `limits.max_chars` is skipped after its draws, so
/// the bound never changes how `rng` is consumed per proposal. A search that
/// goes `limits.stall_rounds` rounds in a row without improving stops there:
/// the current string is already the best it found.
pub(crate) fn perturb_toward_keys<'a, R: Rng + ?Sized>(
    s: &'a str,
    source: &[u64],
    target: f64,
    pool: &'a TokenPool,
    limits: SearchLimits,
    rng: &mut R,
) -> Search {
    let target = target.clamp(0.0, 1.0);
    // Case- and punctuation-preserving tokens of the source string.
    let mut current: Vec<&str> = s.split_whitespace().collect();
    if current.is_empty() {
        current.push(pool.sample(rng));
    }
    let mut scratch = GramScratch::default();
    let mut best_sim = jaccard_keys(source, scratch.load_joined(current.iter().copied()));
    let mut joined = scratch.chars.len();

    // target == 1 means an exact copy is wanted.
    if target >= 1.0 - f64::EPSILON {
        return Search { text: s.to_string(), sim: 1.0, rounds: 0, stalled: false };
    }

    let width = 8;
    let (mut rounds, mut since_improved) = (0, 0);
    for _ in 0..limits.max_rounds {
        if (best_sim - target).abs() <= limits.tol {
            break;
        }
        if since_improved == limits.stall_rounds {
            return Search { text: current.join(" "), sim: best_sim, rounds, stalled: true };
        }
        rounds += 1;
        since_improved += 1;
        let mut best_round: Option<(Edit, f64, usize)> = None;
        for _ in 0..width {
            let need_lower = best_sim > target;
            let len = current.len();
            let edit = match rng.gen_range(0..3) {
                // Drop a token (lowers similarity) / insert a corpus token.
                0 => {
                    if need_lower && len > 1 {
                        Edit { at: rng.gen_range(0..len), removed: 1, inserted: None }
                    } else {
                        let at = rng.gen_range(0..=len);
                        Edit { at, removed: 0, inserted: Some(pool.sample(rng)) }
                    }
                }
                // Replace a token with a corpus token.
                1 => {
                    let at = rng.gen_range(0..len);
                    Edit { at, removed: 1, inserted: Some(pool.sample(rng)) }
                }
                // Append a corpus token (lowers sim when already similar).
                _ => Edit { at: len, removed: 0, inserted: Some(pool.sample(rng)) },
            };
            let chars = edit.joined_chars(&current, joined);
            if chars > limits.max_chars {
                continue;
            }
            let sim = jaccard_keys(source, scratch.load_joined(edit.tokens(&current)));
            let dist = (sim - target).abs();
            if best_round
                .as_ref()
                .map_or(true, |(_, s2, _)| dist < (s2 - target).abs())
            {
                best_round = Some((edit, sim, chars));
            }
        }
        if let Some((edit, sim, chars)) = best_round {
            if (sim - target).abs() < (best_sim - target).abs() {
                edit.apply(&mut current);
                best_sim = sim;
                joined = chars;
                since_improved = 0;
            }
        }
    }
    Search { text: current.join(" "), sim: best_sim, rounds, stalled: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use similarity::qgram_jaccard;

    fn pool() -> TokenPool {
        TokenPool::from_corpus([
            "adaptive query processing for data streams",
            "efficient join algorithms in parallel databases",
            "mining frequent patterns without candidate generation",
            "temporal middleware evaluation strategies",
        ])
    }

    #[test]
    fn high_target_stays_close_to_source() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = "adaptive query processing in temporal middleware systems";
        let (out, sim) = perturb_toward(s, 0.85, &pool(), 0.05, 200, &mut rng);
        assert!((sim - 0.85).abs() < 0.12, "sim {sim} out {out:?}");
    }

    #[test]
    fn mixed_case_source_reaches_high_similarity() {
        // Regression: a lowercasing perturber capped similarity around 0.5
        // for title-cased sources.
        let mut rng = StdRng::seed_from_u64(9);
        let s = "Forest Family Restaurant";
        let p = TokenPool::from_corpus(["Golden Dragon Diner", "Happy Garden Cafe"]);
        let (out, sim) = perturb_toward(s, 0.73, &p, 0.05, 300, &mut rng);
        assert!((sim - 0.73).abs() < 0.15, "sim {sim} out {out:?}");
    }

    #[test]
    fn low_target_produces_dissimilar_string() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = "adaptive query processing in temporal middleware systems";
        let (out, sim) = perturb_toward(s, 0.05, &pool(), 0.05, 300, &mut rng);
        assert!(sim < 0.25, "sim {sim} out {out:?}");
        assert!(!out.is_empty());
    }

    #[test]
    fn target_one_returns_copy() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = "generalised hash teams";
        let (out, sim) = perturb_toward(s, 1.0, &pool(), 0.01, 50, &mut rng);
        assert_eq!(out, s);
        assert_eq!(sim, 1.0);
    }

    #[test]
    fn mid_targets_across_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = "mining frequent patterns from large transaction databases";
        for target in [0.2, 0.4, 0.6, 0.8] {
            let (_, sim) = perturb_toward(s, target, &pool(), 0.05, 400, &mut rng);
            assert!(
                (sim - target).abs() < 0.17,
                "target {target} achieved {sim}"
            );
        }
    }

    #[test]
    fn output_tokens_are_domain_tokens() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = "temporal middleware evaluation";
        let p = pool();
        let (out, _) = perturb_toward(s, 0.5, &p, 0.02, 200, &mut rng);
        let src_tokens: std::collections::HashSet<String> =
            tokenize(s).into_iter().collect();
        for t in tokenize(&out) {
            assert!(
                p.contains(&t) || src_tokens.contains(&t),
                "alien token {t}"
            );
        }
    }

    #[test]
    fn pool_contains_is_case_insensitive() {
        let p = TokenPool::from_corpus(["Golden Dragon"]);
        assert!(p.contains("golden"));
        assert!(p.contains("Golden"));
        assert!(p.contains("DRAGON"));
        assert!(!p.contains("unicorn"));
    }

    #[test]
    fn plausibility_scores() {
        let p = pool();
        assert_eq!(p.plausibility("adaptive query"), 1.0);
        assert_eq!(p.plausibility("zzz qqq"), 0.0);
        assert!((p.plausibility("adaptive zzz") - 0.5).abs() < 1e-12);
        assert_eq!(p.plausibility(""), 0.0);
    }

    #[test]
    fn empty_source_handled() {
        let mut rng = StdRng::seed_from_u64(6);
        let (out, _) = perturb_toward("", 0.5, &pool(), 0.05, 50, &mut rng);
        assert!(!out.is_empty());
    }

    #[test]
    fn empty_corpus_fallback() {
        let p = TokenPool::from_corpus(std::iter::empty::<&str>());
        assert!(!p.is_empty());
    }

    /// The scalar implementation the packed-key kernel replaced, kept
    /// verbatim: `qgram_jaccard` over a joined clone of every proposal.
    fn perturb_toward_reference<R: Rng + ?Sized>(
        s: &str,
        target: f64,
        pool: &TokenPool,
        tol: f64,
        max_rounds: usize,
        rng: &mut R,
    ) -> (String, f64) {
        let target = target.clamp(0.0, 1.0);
        let mut current: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        if current.is_empty() {
            current.push(pool.sample(rng).to_string());
        }
        let score = |tokens: &[String]| qgram_jaccard(s, &tokens.join(" "), 3);
        let mut best_sim = score(&current);

        if target >= 1.0 - f64::EPSILON {
            return (s.to_string(), 1.0);
        }

        let width = 8;
        for _ in 0..max_rounds {
            if (best_sim - target).abs() <= tol {
                break;
            }
            let mut best_round: Option<(Vec<String>, f64)> = None;
            for _ in 0..width {
                let mut cand = current.clone();
                let need_lower = best_sim > target;
                let op = rng.gen_range(0..3);
                match op {
                    0 => {
                        if need_lower && cand.len() > 1 {
                            let i = rng.gen_range(0..cand.len());
                            cand.remove(i);
                        } else {
                            let i = rng.gen_range(0..=cand.len());
                            cand.insert(i, pool.sample(rng).to_string());
                        }
                    }
                    1 => {
                        let i = rng.gen_range(0..cand.len());
                        cand[i] = pool.sample(rng).to_string();
                    }
                    _ => {
                        cand.push(pool.sample(rng).to_string());
                    }
                }
                if cand.is_empty() {
                    continue;
                }
                let sim = score(&cand);
                let dist = (sim - target).abs();
                if best_round
                    .as_ref()
                    .map_or(true, |(_, s2)| dist < (s2 - target).abs())
                {
                    best_round = Some((cand, sim));
                }
            }
            if let Some((cand, sim)) = best_round {
                if (sim - target).abs() < (best_sim - target).abs() {
                    current = cand;
                    best_sim = sim;
                }
            }
        }
        (current.join(" "), best_sim)
    }

    #[test]
    fn perturb_toward_matches_the_scalar_reference() {
        // Short, multi-byte and repeated-gram tokens reach the kernel both
        // as sources and as pool insertions; "x\0\0" and "x\u{10FFFF}…"
        // would collide with the short source "x" under a pad a char takes.
        let pool = TokenPool::from_corpus([
            "adaptive query processing",
            "Golden Dragon Diner",
            "café crème brûlée",
            "日本 語学 x",
            "aaa aaaa ab",
            "x\0\0 x\u{10FFFF}\u{10FFFF}",
        ]);
        let sources = [
            "",
            "a",
            "x",
            "ab",
            "   ",
            "a  b\t\tc",
            "\tGolden \t Dragon\t",
            "café crème brûlée à la carte",
            "日本語 学習",
            "aaaa aaaa aaa",
            "the the the the",
            "Forest Family Restaurant",
            "adaptive query processing in temporal middleware systems",
        ];
        let mut cases = 0;
        for (k, s) in sources.iter().enumerate() {
            for target in [0.0, 0.3, 0.55, 0.8, 1.0] {
                for tol in [0.0, 0.03] {
                    for max_rounds in [0, 1, 300] {
                        let seed = 1000 + k as u64;
                        let mut r1 = StdRng::seed_from_u64(seed);
                        let mut r2 = StdRng::seed_from_u64(seed);
                        let (want, want_sim) =
                            perturb_toward_reference(s, target, &pool, tol, max_rounds, &mut r1);
                        let (got, got_sim) =
                            perturb_toward(s, target, &pool, tol, max_rounds, &mut r2);
                        let case = format!("{s:?} target {target} tol {tol} rounds {max_rounds}");
                        assert_eq!(got, want, "{case}");
                        assert_eq!(got_sim.to_bits(), want_sim.to_bits(), "{case}");
                        assert_eq!(r2.gen::<u64>(), r1.gen::<u64>(), "RNG stream: {case}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, sources.len() * 5 * 2 * 3);
    }

    #[test]
    fn packed_jaccard_matches_qgram_jaccard_on_edge_cases() {
        let strings = [
            "", "a", "ab", "abc", "aaa", "aaaa", "aaaaa", "abab", "ababab", "a b", " a", "  ", "\t",
            "a\tb", "é", "éé", "ééé", "日本語", "日本語学", "\0", "a\0\0", "\u{10FFFF}",
        ];
        let (mut sa, mut sb) = (GramScratch::default(), GramScratch::default());
        for a in strings {
            for b in strings {
                let got = jaccard_keys(sa.load(a), sb.load(b));
                assert_eq!(got.to_bits(), qgram_jaccard(a, b, 3).to_bits(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn no_char_pads_a_short_string_key() {
        // A 1- or 2-char string is one whole-string key padded with `PAD`.
        // Were `PAD` a char `p`, "a" would collide with the 3-gram "app"
        // and "ab" with "abp"; qgram_jaccard scores both pairs 0.
        let (mut short, mut long) = (GramScratch::default(), GramScratch::default());
        let mut buf = String::new();
        for c in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            for (prefix, pads) in [("a", 2), ("ab", 1)] {
                buf.clear();
                buf.push_str(prefix);
                buf.extend(std::iter::repeat_n(c, pads));
                let sim = jaccard_keys(short.load(prefix), long.load(&buf));
                assert_eq!(sim, 0.0, "{prefix:?} vs {buf:?}");
            }
        }
    }

    /// Adversarial chars (whitespace, NUL, multi-byte, `char::MAX`) mixed
    /// with arbitrary scalar values.
    const EDGE_CHARS: [char; 9] =
        ['a', 'b', ' ', '\t', '\0', 'é', '日', '\u{10FFFF}', '\u{1F600}'];

    fn unicode_string() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        prop::collection::vec((0u32..2, any::<u32>()), 0..10).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(edge, x)| {
                    if edge == 0 {
                        EDGE_CHARS[x as usize % EDGE_CHARS.len()]
                    } else {
                        char::from_u32(x % 0x11_0000).unwrap_or('\u{FFFD}')
                    }
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn packed_jaccard_is_qgram_jaccard(a in unicode_string(), b in unicode_string()) {
            let (mut sa, mut sb) = (GramScratch::default(), GramScratch::default());
            // Derived pairs share grams, repeat them, and straddle the
            // 3-char boundary, which independent draws rarely do.
            let ab = format!("{a}{b}");
            let ba = format!("{b}{a}");
            let aa = a.repeat(2);
            // A 1- or 2-char head of `a` against itself followed by a char
            // of `b`, repeated: were the pad a char, it would collide here.
            let head: String = a.chars().take(1 + a.len() % 2).collect();
            let c = b.chars().next().unwrap_or('\0');
            let padded = format!("{head}{c}{c}");
            for (x, y) in [(&a, &b), (&a, &ab), (&ba, &ab), (&a, &aa), (&b, &b), (&head, &padded)] {
                let got = jaccard_keys(sa.load(x), sb.load(y));
                proptest::prop_assert_eq!(got.to_bits(), qgram_jaccard(x, y, 3).to_bits());
            }
            // A joined load is the load of the joined string.
            let joined = jaccard_keys(sa.load_joined([a.as_str(), b.as_str()]), sb.load(&ba));
            let want = qgram_jaccard(&format!("{a} {b}"), &ba, 3);
            proptest::prop_assert_eq!(joined.to_bits(), want.to_bits());
        }
    }
}
