//! Precomputed per-string profiles and the zero-rebuild pair kernels.
//!
//! Every similarity kernel in this crate has a scalar form (`&str` in, score
//! out) that re-derives per-string structure — char buffers, q-gram maps,
//! token sets — on every call. A [`StringProfile`] hoists that work to a
//! single build per string, after which a pair comparison is a pure merge
//! over preprocessed arrays:
//!
//! * **q-grams** become a sorted `Vec<u64>` of FNV-1a hashes; multiset
//!   intersection is a linear two-pointer merge instead of a `HashMap` probe
//!   per gram. Scores are identical to the scalar kernels unless two distinct
//!   grams collide in 64 bits (probability ≈ `g²/2⁶⁵` for `g` distinct grams
//!   corpus-wide — about 10⁻¹⁰ for a million grams; see DESIGN.md §10).
//! * **tokens** become interned `u32` ids from a shared [`TokenInterner`];
//!   set intersections are merges over sorted id slices and are *exact*.
//! * **edit distance** gets a Myers [`PatternEq`] bitmask table so pairs
//!   resolve through the bit-parallel kernel (exact distance, ~64× fewer
//!   cell updates), with the classic DP as fallback for >64-char strings.
//! * **TF / TF-IDF cosine** becomes a merge over `(token id, weight)` entries
//!   pre-sorted by token text, replicating the scalar kernels' canonical
//!   lexicographic summation order bit-for-bit.
//!
//! A profile holds only what its [`ProfileSpec`] asks for — in production,
//! exactly the fields its column's kernel reads
//! ([`crate::SimilarityKind::profile_spec`]). A kernel called on a profile
//! built without its field panics; [`crate::SimilarityKind::eval_profiles`]
//! checks first and returns `None` instead.
//!
//! Profiles are interner-relative: ids from different [`TokenInterner`]s are
//! unrelated, so only profiles built through the same interner (usually via
//! one [`SimContext`]) may be compared.
//!
//! Building splits into two phases so corpora can be profiled in parallel
//! while keeping interner ids deterministic: [`RawProfile::build`] does all
//! string work and is safe to fan out (`parallel::par_map`), then
//! [`RawProfile::intern`] assigns first-seen token ids and must run serially.
//! A spec that reads no tokens leaves nothing for the second phase.

use crate::intern::{TokenEntry, TokenInterner};
use crate::myers::{myers_distance, PatternEq};
use crate::TfIdf;
use std::cmp::Ordering;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a hash of a character sequence (hashed via its UTF-8 encoding, so a
/// pure-ASCII gram hashes identically through [`hash_gram_bytes`]).
pub fn hash_gram_chars(chars: &[char]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut buf = [0u8; 4];
    for &c in chars {
        h = fnv1a(h, c.encode_utf8(&mut buf).as_bytes());
    }
    h
}

/// FNV-1a hash of a byte slice (ASCII fast path of [`hash_gram_chars`]).
pub fn hash_gram_bytes(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Unsorted hashes of `s`'s sliding `q`-char windows; a string shorter than
/// `q` chars (including the empty string) is one whole-string gram.
fn window_hashes(s: &str, q: usize) -> Vec<u64> {
    if s.is_ascii() {
        let bytes = s.as_bytes();
        if bytes.len() < q {
            vec![hash_gram_bytes(bytes)]
        } else {
            bytes.windows(q).map(hash_gram_bytes).collect()
        }
    } else {
        let chars: Vec<char> = s.chars().collect();
        if chars.len() < q {
            vec![hash_gram_chars(&chars)]
        } else {
            chars.windows(q).map(hash_gram_chars).collect()
        }
    }
}

/// Sorted, deduplicated q-gram hash keys of one *lowercased* string, as used
/// by the q-gram blocking index. Mirrors the blocking tokenizer: a string
/// shorter than `q` chars (including the empty string) contributes the whole
/// string as its single key.
pub fn block_gram_hashes(lower: &str, q: usize) -> Vec<u64> {
    let mut out = window_hashes(lower, q.max(1));
    out.sort_unstable();
    out.dedup();
    out
}

/// What to precompute when building a profile. Each field serves one family
/// of kernels; [`crate::SimilarityKind::profile_spec`] asks for exactly what
/// a column's kernel reads. `Default` builds nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSpec {
    /// Build the sorted q-gram hash multiset at this gram length (clamped to
    /// >= 1) — the q-gram kernels.
    pub q: Option<usize>,
    /// Keep the char buffer — the edit-distance and Jaro kernels.
    pub chars: bool,
    /// Also build the Myers bitmask table over the chars (implies `chars`) —
    /// the edit-distance kernels.
    pub peq: bool,
    /// Intern the tokens into ids, a set and a tf vector — the token and
    /// cosine kernels.
    pub tokens: bool,
    /// Build the sorted-unique lowercase gram keys q-gram blocking indexes
    /// on, at this gram length (clamped to >= 1).
    pub block_q: Option<usize>,
}

impl ProfileSpec {
    /// Everything precomputed — the right spec for tests and benches.
    pub fn full(q: usize) -> ProfileSpec {
        ProfileSpec { q: Some(q), chars: true, peq: true, tokens: true, block_q: Some(q) }
    }
}

/// The char buffer and, when asked for, its Myers table.
#[derive(Debug, Clone)]
struct CharProfile {
    chars: Vec<char>,
    peq: Option<PatternEq>,
}

/// Interned tokens: occurrence order, sorted set, and text-sorted tf.
#[derive(Debug, Clone)]
struct TokenProfile {
    ids: Vec<u32>,
    set: Vec<u32>,
    tf: Vec<(u32, f64)>,
}

/// A lowercased string's tokens as byte ranges, awaiting interner ids.
#[derive(Debug, Clone)]
struct PendingTokens {
    lower: String,
    ranges: Vec<(usize, usize)>,
}

/// Phase-one profile: all per-string work done, tokens not yet interned.
/// Safe to build in parallel; [`RawProfile::intern`] must run serially.
#[derive(Debug, Clone)]
pub struct RawProfile {
    prof: StringProfile,
    tokens: Option<PendingTokens>,
}

impl RawProfile {
    pub fn build(s: &str, spec: &ProfileSpec) -> RawProfile {
        // q-gram multiset, mirroring `qgram_profile`: empty string -> no
        // grams; shorter than q -> one whole-string gram; else sliding
        // windows over chars. Stored as a *sorted* hash multiset.
        let qgrams = spec.q.map(|q| {
            let q = q.max(1);
            let mut grams = if s.is_empty() { Vec::new() } else { window_hashes(s, q) };
            grams.sort_unstable();
            (q, grams)
        });

        let chars = (spec.chars || spec.peq).then(|| {
            let chars: Vec<char> = s.chars().collect();
            let peq = if spec.peq { PatternEq::build(&chars) } else { None };
            Box::new(CharProfile { chars, peq })
        });

        let lower = (spec.tokens || spec.block_q.is_some()).then(|| s.to_lowercase());
        let block_grams = spec.block_q.zip(lower.as_deref()).map(|(bq, lower)| {
            let bq = bq.max(1);
            (bq, block_gram_hashes(lower, bq))
        });

        let tokens = if spec.tokens { lower.map(PendingTokens::split) } else { None };

        RawProfile { prof: StringProfile { qgrams, chars, tokens: None, block_grams }, tokens }
    }

    /// Phase two: assign interner ids (first-seen order — keep this serial
    /// and in a deterministic sequence for deterministic ids). A spec that
    /// reads no tokens leaves the interner untouched.
    pub fn intern(self, interner: &mut TokenInterner) -> StringProfile {
        let ids = self.tokens.as_ref().map(|t| t.iter().map(|tok| interner.intern(tok)).collect());
        self.finish(ids, interner)
    }

    /// [`Self::intern`] against a *read-only* interner: token ids come from
    /// lookup, never assignment, so parallel builds and concurrent rebuilds
    /// of evicted profiles can't perturb the id space. Returns `None` when
    /// any token is unknown to the interner — building a string whose tokens
    /// were interned beforehand always succeeds; anything else must fall
    /// back to the scalar kernels.
    pub fn intern_readonly(self, interner: &TokenInterner) -> Option<StringProfile> {
        let ids = match &self.tokens {
            Some(t) => Some(t.iter().map(|tok| interner.get(tok)).collect::<Option<_>>()?),
            None => None,
        };
        Some(self.finish(ids, interner))
    }

    fn finish(self, ids: Option<Vec<u32>>, interner: &TokenInterner) -> StringProfile {
        let mut prof = self.prof;
        prof.tokens = ids.map(|ids| Box::new(TokenProfile::new(ids, interner)));
        prof
    }
}

impl PendingTokens {
    /// Splits a lowercased string into token byte ranges (the tokenizer's
    /// split, without per-token String allocations).
    fn split(lower: String) -> PendingTokens {
        let mut ranges = Vec::new();
        let mut start = 0usize;
        for (i, c) in lower.char_indices() {
            if !c.is_alphanumeric() {
                if start < i {
                    ranges.push((start, i));
                }
                start = i + c.len_utf8();
            }
        }
        if start < lower.len() {
            ranges.push((start, lower.len()));
        }
        PendingTokens { lower, ranges }
    }

    /// The tokens in occurrence order.
    fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.ranges.iter().map(|&(s, e)| &self.lower[s..e])
    }
}

impl TokenProfile {
    fn new(ids: Vec<u32>, interner: &TokenInterner) -> TokenProfile {
        let mut set = ids.clone();
        set.sort_unstable();
        set.dedup();

        // Term frequencies sorted by token *text* — the canonical order the
        // scalar cosine kernels sum in.
        let mut tf: Vec<(u32, f64)> = Vec::with_capacity(set.len());
        for &id in &ids {
            match tf.iter_mut().find(|(t, _)| *t == id) {
                Some((_, c)) => *c += 1.0,
                None => tf.push((id, 1.0)),
            }
        }
        tf.sort_unstable_by(|&(x, _), &(y, _)| interner.text(x).cmp(interner.text(y)));
        TokenProfile { ids, set, tf }
    }
}

/// A preprocessed string: the fields its [`ProfileSpec`] asked for, so that
/// comparing two profiles allocates nothing. Each field is `None` when the
/// spec did not ask for it.
#[derive(Debug, Clone)]
pub struct StringProfile {
    /// Gram length and sorted q-gram hash multiset.
    qgrams: Option<(usize, Vec<u64>)>,
    // Boxed: most columns read neither part, and inline they would more
    // than double the size of every profile a cache holds.
    chars: Option<Box<CharProfile>>,
    tokens: Option<Box<TokenProfile>>,
    /// Gram length and sorted-unique lowercase blocking keys.
    block_grams: Option<(usize, Vec<u64>)>,
}

impl StringProfile {
    /// Builds a profile in one step (parallel corpora should go through
    /// [`RawProfile::build`] + [`RawProfile::intern`] instead).
    pub fn build(s: &str, spec: &ProfileSpec, interner: &mut TokenInterner) -> StringProfile {
        RawProfile::build(s, spec).intern(interner)
    }

    /// The gram length the q-gram multiset was built with.
    pub fn q(&self) -> Option<usize> {
        self.qgrams.as_ref().map(|(q, _)| *q)
    }

    /// Sorted q-gram hash multiset (`len()` is the multiset total).
    pub fn qgrams(&self) -> Option<&[u64]> {
        self.qgrams.as_ref().map(|(_, g)| &g[..])
    }

    /// Characters of the original string.
    pub fn chars(&self) -> Option<&[char]> {
        self.chars.as_deref().map(|c| &c.chars[..])
    }

    /// Myers bitmask table (`None` when not requested or >64 chars).
    pub fn peq(&self) -> Option<&PatternEq> {
        self.chars.as_deref().and_then(|c| c.peq.as_ref())
    }

    /// Token ids in occurrence order (duplicates kept).
    pub fn tokens(&self) -> Option<&[u32]> {
        self.tokens.as_deref().map(|t| &t.ids[..])
    }

    /// Sorted, deduplicated token ids.
    pub fn token_set(&self) -> Option<&[u32]> {
        self.tokens.as_deref().map(|t| &t.set[..])
    }

    /// Term frequencies, sorted lexicographically by token text.
    pub fn tf(&self) -> Option<&[(u32, f64)]> {
        self.tokens.as_deref().map(|t| &t.tf[..])
    }

    /// Sorted-unique lowercase blocking gram keys, if requested at build.
    pub fn block_grams(&self) -> Option<&[u64]> {
        self.block_grams.as_ref().map(|(_, g)| &g[..])
    }

    /// Blocking gram keys *only if* they were built at gram length `q`
    /// (clamped to >= 1); callers that need a different `q` must hash the
    /// string themselves.
    pub fn block_grams_at(&self, q: usize) -> Option<&[u64]> {
        match &self.block_grams {
            Some((bq, grams)) if *bq == q.max(1) => Some(grams),
            _ => None,
        }
    }

    fn gram_part(&self) -> &[u64] {
        self.qgrams().expect("q-gram kernel on a profile built without q-grams")
    }

    fn char_part(&self) -> &CharProfile {
        self.chars.as_deref().expect("char kernel on a profile built without chars")
    }

    fn token_part(&self) -> &TokenProfile {
        self.tokens.as_deref().expect("token kernel on a profile built without tokens")
    }
}

/// A shared comparison context: the interner all profiles of one corpus pair
/// are built through.
#[derive(Debug, Clone, Default)]
pub struct SimContext {
    interner: TokenInterner,
}

impl SimContext {
    pub fn new() -> SimContext {
        SimContext::default()
    }

    pub fn interner(&self) -> &TokenInterner {
        &self.interner
    }

    pub fn interner_mut(&mut self) -> &mut TokenInterner {
        &mut self.interner
    }

    /// Builds a profile through this context's interner.
    pub fn profile(&mut self, s: &str, spec: &ProfileSpec) -> StringProfile {
        StringProfile::build(s, spec, &mut self.interner)
    }
}

/// Multiset intersection size of two sorted hash slices (duplicates count,
/// exactly like summing `min(count_a, count_b)` per distinct element).
fn multiset_intersection(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Set intersection size of two sorted deduplicated id slices.
fn sorted_set_intersection(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Profile-based q-gram Jaccard — merge-based twin of [`crate::qgram_jaccard`]
/// at the profiles' build-time `q`.
pub fn prof_qgram_jaccard(a: &StringProfile, b: &StringProfile) -> f64 {
    let (ga, gb) = (a.gram_part(), b.gram_part());
    let (ta, tb) = (ga.len(), gb.len());
    if ta == 0 && tb == 0 {
        return 1.0;
    }
    let inter = multiset_intersection(ga, gb) as f64;
    let union = (ta + tb) as f64 - inter;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// Profile-based q-gram overlap coefficient — twin of [`crate::qgram_overlap`].
pub fn prof_qgram_overlap(a: &StringProfile, b: &StringProfile) -> f64 {
    let (ga, gb) = (a.gram_part(), b.gram_part());
    let (ta, tb) = (ga.len(), gb.len());
    if ta == 0 && tb == 0 {
        return 1.0;
    }
    let denom = ta.min(tb);
    if denom == 0 {
        return 0.0;
    }
    multiset_intersection(ga, gb) as f64 / denom as f64
}

/// Profile-based q-gram Dice coefficient — twin of [`crate::qgram_dice`].
pub fn prof_qgram_dice(a: &StringProfile, b: &StringProfile) -> f64 {
    let (ga, gb) = (a.gram_part(), b.gram_part());
    let (ta, tb) = (ga.len(), gb.len());
    if ta == 0 && tb == 0 {
        return 1.0;
    }
    let denom = (ta + tb) as f64;
    if denom == 0.0 {
        return 0.0;
    }
    2.0 * multiset_intersection(ga, gb) as f64 / denom
}

/// Profile-based Levenshtein distance: Myers bit-parallel when either side
/// carries a `PatternEq` (<= 64 chars), the classic DP over chars otherwise.
/// Always the exact distance.
pub fn prof_levenshtein(a: &StringProfile, b: &StringProfile) -> usize {
    let (a, b) = (a.char_part(), b.char_part());
    if a.chars.is_empty() {
        return b.chars.len();
    }
    if b.chars.is_empty() {
        return a.chars.len();
    }
    if let Some(peq) = &a.peq {
        return myers_distance(peq, &b.chars);
    }
    if let Some(peq) = &b.peq {
        return myers_distance(peq, &a.chars);
    }
    crate::edit::levenshtein_slices(&a.chars, &b.chars)
}

/// Profile-based normalized edit similarity — twin of
/// [`crate::edit_similarity`].
pub fn prof_edit_similarity(a: &StringProfile, b: &StringProfile) -> f64 {
    let m = a.char_part().chars.len().max(b.char_part().chars.len());
    if m == 0 {
        return 1.0;
    }
    1.0 - prof_levenshtein(a, b) as f64 / m as f64
}

/// Profile-based Jaro similarity — twin of [`crate::jaro`], computed over the
/// cached char buffers with thread-local scratch (no per-pair allocation).
pub fn prof_jaro(a: &StringProfile, b: &StringProfile) -> f64 {
    crate::jaro::jaro_slices(&a.char_part().chars, &b.char_part().chars)
}

/// Profile-based Jaro–Winkler similarity — twin of [`crate::jaro_winkler`].
pub fn prof_jaro_winkler(a: &StringProfile, b: &StringProfile) -> f64 {
    crate::jaro::jaro_winkler_slices(&a.char_part().chars, &b.char_part().chars)
}

/// Profile-based token Jaccard — twin of [`crate::token_jaccard`], exact
/// (interned ids are bijective with token strings).
pub fn prof_token_jaccard(a: &StringProfile, b: &StringProfile) -> f64 {
    let (sa, sb) = (&a.token_part().set, &b.token_part().set);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sorted_set_intersection(sa, sb) as f64;
    let union = (sa.len() + sb.len()) as f64 - inter;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// Profile-based token Dice — twin of [`crate::token_dice`].
pub fn prof_token_dice(a: &StringProfile, b: &StringProfile) -> f64 {
    let (sa, sb) = (&a.token_part().set, &b.token_part().set);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let denom = (sa.len() + sb.len()) as f64;
    if denom == 0.0 {
        return 0.0;
    }
    2.0 * sorted_set_intersection(sa, sb) as f64 / denom
}

#[inline]
fn token_edit_similarity(interner: &TokenInterner, x: u32, y: u32) -> f64 {
    if x == y {
        return 1.0;
    }
    let ex: &TokenEntry = interner.entry(x);
    let ey: &TokenEntry = interner.entry(y);
    let m = ex.chars().len().max(ey.chars().len());
    if m == 0 {
        return 1.0;
    }
    let d = if let Some(p) = ex.peq() {
        myers_distance(p, ey.chars())
    } else if let Some(p) = ey.peq() {
        myers_distance(p, ex.chars())
    } else {
        crate::edit::levenshtein_slices(ex.chars(), ey.chars())
    };
    1.0 - d as f64 / m as f64
}

/// Profile-based Monge–Elkan — twin of [`crate::monge_elkan`]; tokens are
/// walked in occurrence order (the scalar kernel's summation order) and the
/// inner edit similarity goes through the per-token Myers tables cached on
/// the interner.
pub fn prof_monge_elkan(a: &StringProfile, b: &StringProfile, interner: &TokenInterner) -> f64 {
    let (ta, tb) = (&a.token_part().ids, &b.token_part().ids);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let dir = |xs: &[u32], ys: &[u32]| -> f64 {
        xs.iter()
            .map(|&x| {
                ys.iter()
                    .map(|&y| token_edit_similarity(interner, x, y))
                    .fold(0.0, f64::max)
            })
            .sum::<f64>()
            / xs.len() as f64
    };
    0.5 * (dir(ta, tb) + dir(tb, ta))
}

/// Merges two tf entry lists (sorted by token text) accumulating the dot
/// product with the given per-side weighting. Equal ids short-circuit the
/// text comparison; unequal ids always denote unequal texts.
fn tf_dot(
    a: &[(u32, f64)],
    b: &[(u32, f64)],
    interner: &TokenInterner,
    wa: impl Fn(u32, f64) -> f64,
    wb: impl Fn(u32, f64) -> f64,
) -> f64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut dot = 0.0;
    while i < a.len() && j < b.len() {
        let (ia, ca) = a[i];
        let (ib, cb) = b[j];
        let ord = if ia == ib {
            Ordering::Equal
        } else {
            interner.text(ia).cmp(interner.text(ib))
        };
        match ord {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                dot += wa(ia, ca) * wb(ib, cb);
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

/// Profile-based TF cosine — twin of [`crate::cosine_tf`]; the dot product
/// and norms are accumulated in the same lexicographic token order as the
/// scalar kernel, so results agree bit-for-bit.
pub fn prof_cosine_tf(a: &StringProfile, b: &StringProfile, interner: &TokenInterner) -> f64 {
    let (fa, fb) = (&a.token_part().tf, &b.token_part().tf);
    if fa.is_empty() && fb.is_empty() {
        return 1.0;
    }
    let dot = tf_dot(fa, fb, interner, |_, c| c, |_, c| c);
    let na = fa.iter().map(|&(_, c)| c * c).sum::<f64>().sqrt();
    let nb = fb.iter().map(|&(_, c)| c * c).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(0.0, 1.0)
}

/// Interned view of a corpus-fitted [`TfIdf`]: IDF weights indexed by token
/// id. Ids interned *after* [`InternedIdf::fit_from`] are by construction
/// outside the fitted corpus vocabulary and receive `max_idf`, exactly like
/// the scalar model's unknown-token rule.
#[derive(Debug, Clone)]
pub struct InternedIdf {
    idf: Vec<f64>,
    max_idf: f64,
}

impl InternedIdf {
    /// Interns the fitted vocabulary (in sorted order, for deterministic
    /// ids) and materializes the id-indexed IDF table.
    pub fn fit_from(tfidf: &TfIdf, interner: &mut TokenInterner) -> InternedIdf {
        let mut vocab: Vec<&str> = tfidf.vocabulary().collect();
        vocab.sort_unstable();
        for t in vocab {
            interner.intern(t);
        }
        let idf: Vec<f64> = (0..interner.len())
            .map(|id| tfidf.idf(interner.text(id as u32)))
            .collect();
        InternedIdf { idf, max_idf: tfidf.max_idf() }
    }

    /// IDF weight of a token id.
    #[inline]
    pub fn idf(&self, id: u32) -> f64 {
        self.idf.get(id as usize).copied().unwrap_or(self.max_idf)
    }
}

/// Profile-based TF-IDF cosine — twin of [`TfIdf::cosine`] for profiles
/// whose tokens were interned before `idf` was built from the same fit.
pub fn prof_cosine_tfidf(
    a: &StringProfile,
    b: &StringProfile,
    interner: &TokenInterner,
    idf: &InternedIdf,
) -> f64 {
    let (fa, fb) = (&a.token_part().tf, &b.token_part().tf);
    if fa.is_empty() && fb.is_empty() {
        return 1.0;
    }
    let dot = tf_dot(fa, fb, interner, |id, c| c * idf.idf(id), |id, c| c * idf.idf(id));
    let norm = |tf: &[(u32, f64)]| {
        tf.iter()
            .map(|&(id, c)| {
                let w = c * idf.idf(id);
                w * w
            })
            .sum::<f64>()
            .sqrt()
    };
    let (na, nb) = (norm(fa), norm(fb));
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        cosine_tf, edit_similarity, jaro_winkler, levenshtein, monge_elkan, qgram_dice,
        qgram_jaccard, qgram_overlap, token_dice, token_jaccard,
    };

    fn ctx_profiles(a: &str, b: &str, q: usize) -> (StringProfile, StringProfile, SimContext) {
        let mut ctx = SimContext::new();
        let spec = ProfileSpec::full(q);
        let pa = ctx.profile(a, &spec);
        let pb = ctx.profile(b, &spec);
        (pa, pb, ctx)
    }

    const CASES: &[(&str, &str)] = &[
        ("", ""),
        ("", "abc"),
        ("ab", "ab"),
        ("ab", "cd"),
        ("kitten", "sitting"),
        ("sigmod conference", "international conference on management of data"),
        ("Christian S. Jensen, Richard T. Snodgrass", "Richard Thomas Snodgrass, C. Jensen"),
        ("héllo wörld", "hello world"),
        ("日本語 データベース", "日本語 システム"),
        ("aaaa", "aaa"),
        ("The Quick; Brown_Fox!", "the quick brown fox"),
    ];

    #[test]
    fn profile_kernels_match_scalar_kernels() {
        for &(a, b) in CASES {
            let (pa, pb, ctx) = ctx_profiles(a, b, 3);
            let it = ctx.interner();
            assert_eq!(prof_qgram_jaccard(&pa, &pb).to_bits(), qgram_jaccard(a, b, 3).to_bits(), "qgram {a:?} {b:?}");
            assert_eq!(prof_qgram_overlap(&pa, &pb).to_bits(), qgram_overlap(a, b, 3).to_bits(), "overlap {a:?} {b:?}");
            assert_eq!(prof_qgram_dice(&pa, &pb).to_bits(), qgram_dice(a, b, 3).to_bits(), "dice {a:?} {b:?}");
            assert_eq!(prof_levenshtein(&pa, &pb), levenshtein(a, b), "lev {a:?} {b:?}");
            assert_eq!(prof_edit_similarity(&pa, &pb).to_bits(), edit_similarity(a, b).to_bits(), "edit {a:?} {b:?}");
            assert_eq!(prof_jaro_winkler(&pa, &pb).to_bits(), jaro_winkler(a, b).to_bits(), "jw {a:?} {b:?}");
            assert_eq!(prof_token_jaccard(&pa, &pb).to_bits(), token_jaccard(a, b).to_bits(), "tokjac {a:?} {b:?}");
            assert_eq!(prof_token_dice(&pa, &pb).to_bits(), token_dice(a, b).to_bits(), "tokdice {a:?} {b:?}");
            assert_eq!(prof_monge_elkan(&pa, &pb, it).to_bits(), monge_elkan(a, b).to_bits(), "me {a:?} {b:?}");
            assert_eq!(prof_cosine_tf(&pa, &pb, it).to_bits(), cosine_tf(a, b).to_bits(), "cos {a:?} {b:?}");
        }
    }

    #[test]
    fn tfidf_paths_agree() {
        let corpus = ["the quick fox", "the lazy dog", "the hungry wolf", "quick brown fox"];
        let tfidf = TfIdf::fit(corpus);
        let mut ctx = SimContext::new();
        let spec = ProfileSpec { tokens: true, ..ProfileSpec::default() };
        // Contract: profile the corpus through the interner, then fit.
        let profs: Vec<StringProfile> = corpus.iter().map(|s| ctx.profile(s, &spec)).collect();
        let idf = InternedIdf::fit_from(&tfidf, ctx.interner_mut());
        for (i, a) in corpus.iter().enumerate() {
            for (j, b) in corpus.iter().enumerate() {
                let got = prof_cosine_tfidf(&profs[i], &profs[j], ctx.interner(), &idf);
                let want = tfidf.cosine(a, b);
                assert_eq!(got.to_bits(), want.to_bits(), "{a:?} vs {b:?}");
            }
        }
        // Strings with tokens interned after the fit (outside the corpus
        // vocabulary) hit the max-idf rule on both paths.
        let pa = ctx.profile("gaming laptop", &spec);
        let pb = ctx.profile("gaming monitor", &spec);
        let got = prof_cosine_tfidf(&pa, &pb, ctx.interner(), &idf);
        let want = tfidf.cosine("gaming laptop", "gaming monitor");
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn block_gram_hashes_match_profile_block_grams() {
        for s in ["", "ab", "SIGMOD Conference", "héllo wörld", "日本語"] {
            let lower = s.to_lowercase();
            let direct = block_gram_hashes(&lower, 3);
            let mut ctx = SimContext::new();
            let prof = ctx.profile(s, &ProfileSpec { block_q: Some(3), ..ProfileSpec::default() });
            assert_eq!(prof.block_grams(), Some(&direct[..]), "{s:?}");
        }
    }

    #[test]
    fn ascii_and_char_gram_hashes_agree() {
        assert_eq!(hash_gram_bytes(b"abc"), hash_gram_chars(&['a', 'b', 'c']));
        assert_eq!(hash_gram_bytes(b""), hash_gram_chars(&[]));
    }

    #[test]
    fn readonly_intern_reproduces_profiles() {
        let mut ctx = SimContext::new();
        let spec = ProfileSpec::full(3);
        let pa = ctx.profile("adaptive query processing", &spec);
        let pb = ctx.profile("Adaptive Query Evaluation", &spec);
        let rb = RawProfile::build("Adaptive Query Evaluation", &spec)
            .intern_readonly(ctx.interner())
            .expect("all tokens were interned at build time");
        assert_eq!(rb.tokens(), pb.tokens());
        assert_eq!(rb.token_set(), pb.token_set());
        assert_eq!(
            prof_cosine_tf(&pa, &rb, ctx.interner()).to_bits(),
            prof_cosine_tf(&pa, &pb, ctx.interner()).to_bits()
        );
        assert_eq!(
            prof_monge_elkan(&pa, &rb, ctx.interner()).to_bits(),
            prof_monge_elkan(&pa, &pb, ctx.interner()).to_bits()
        );
        // A string with a token the interner has never seen can't be
        // resolved read-only.
        assert!(RawProfile::build("entirely unseen tokens", &spec)
            .intern_readonly(ctx.interner())
            .is_none());
    }

    #[test]
    fn tf_entries_are_text_sorted() {
        let mut ctx = SimContext::new();
        let spec = ProfileSpec { tokens: true, ..ProfileSpec::default() };
        let p = ctx.profile("zeta alpha zeta Beta", &spec);
        let tf = p.tf().expect("the spec asked for tokens");
        let texts: Vec<&str> = tf.iter().map(|&(id, _)| ctx.interner().text(id)).collect();
        assert_eq!(texts, vec!["alpha", "beta", "zeta"]);
        let counts: Vec<f64> = tf.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![1.0, 1.0, 2.0]);
    }
}
