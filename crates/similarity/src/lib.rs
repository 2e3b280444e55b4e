//! Similarity-function substrate for the SERD reproduction.
//!
//! Entity-resolution pipelines reduce entity pairs to *similarity vectors*: one
//! similarity score per aligned attribute (paper Section II-B). This crate
//! implements the similarity functions the paper uses in its experiments
//! (Section VII, "Settings"):
//!
//! * **3-gram Jaccard** for categorical and textual columns ([`qgram_jaccard`]);
//! * **min–max normalized numeric similarity** `1 - |c1 - c2| / (max - min)`
//!   for numeric and date columns ([`numeric_similarity`]);
//!
//! plus a wider family used by the matchers, the EMBench baseline, and tests:
//! Levenshtein distance and the normalized edit similarity, token-level
//! Jaccard, overlap and Dice coefficients, and Monge–Elkan-style hybrid token
//! similarity.
//!
//! All string functions operate on Unicode scalar values (`char`), not bytes,
//! so multi-byte characters count as single symbols.

mod cosine;
mod edit;
mod intern;
mod jaro;
mod myers;
mod profile;
mod qgram;
mod token;

pub use cosine::{cosine_tf, TfIdf};
pub use edit::{edit_similarity, levenshtein};
pub use intern::{TokenEntry, TokenInterner};
pub use jaro::{jaro, jaro_winkler};
pub use myers::{myers_distance, PatternEq};
pub use profile::{
    block_gram_hashes, hash_gram_bytes, hash_gram_chars, prof_cosine_tf, prof_cosine_tfidf,
    prof_edit_similarity, prof_jaro, prof_jaro_winkler, prof_levenshtein, prof_monge_elkan,
    prof_qgram_dice, prof_qgram_jaccard, prof_qgram_overlap, prof_token_dice, prof_token_jaccard,
    InternedIdf, ProfileSpec, RawProfile, SimContext, StringProfile,
};
pub use qgram::{qgram_dice, qgram_jaccard, qgram_overlap, qgram_profile, QgramProfile};
pub use token::{for_each_token, monge_elkan, token_dice, token_jaccard, tokenize};

/// The similarity-function family a column is configured with.
///
/// Each variant is a pure function of two attribute values onto `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimilarityKind {
    /// q-gram Jaccard over characters (paper default: q = 3).
    QgramJaccard {
        /// The gram length `q`.
        q: usize,
    },
    /// Whitespace-token Jaccard.
    TokenJaccard,
    /// Normalized edit similarity `1 - lev(a, b) / max(|a|, |b|)`.
    EditSimilarity,
    /// Jaro–Winkler similarity (name-style short strings).
    JaroWinkler,
    /// Term-frequency cosine similarity (long descriptions).
    CosineTf,
    /// `1 - |a - b| / range`, clamped to `[0, 1]` (numeric & date columns).
    NumericMinMax,
}

impl SimilarityKind {
    /// The paper's default for categorical/textual columns: 3-gram Jaccard.
    pub const PAPER_TEXT: SimilarityKind = SimilarityKind::QgramJaccard { q: 3 };

    /// Evaluates this similarity kind on two *string* values.
    ///
    /// [`SimilarityKind::NumericMinMax`] cannot be computed from strings and
    /// returns `None`; numeric columns are dispatched through
    /// [`numeric_similarity`] with the column range instead.
    pub fn eval_str(&self, a: &str, b: &str) -> Option<f64> {
        match *self {
            SimilarityKind::QgramJaccard { q } => Some(qgram_jaccard(a, b, q)),
            SimilarityKind::TokenJaccard => Some(token_jaccard(a, b)),
            SimilarityKind::EditSimilarity => Some(edit_similarity(a, b)),
            SimilarityKind::JaroWinkler => Some(jaro_winkler(a, b)),
            SimilarityKind::CosineTf => Some(cosine_tf(a, b)),
            SimilarityKind::NumericMinMax => None,
        }
    }

    /// Stable textual token for this kind, used by model-artifact
    /// persistence (e.g. `qgram-jaccard:3`). Inverse of [`Self::from_token`].
    pub fn token(&self) -> String {
        match *self {
            SimilarityKind::QgramJaccard { q } => format!("qgram-jaccard:{q}"),
            SimilarityKind::TokenJaccard => "token-jaccard".to_string(),
            SimilarityKind::EditSimilarity => "edit-similarity".to_string(),
            SimilarityKind::JaroWinkler => "jaro-winkler".to_string(),
            SimilarityKind::CosineTf => "cosine-tf".to_string(),
            SimilarityKind::NumericMinMax => "numeric-min-max".to_string(),
        }
    }

    /// Evaluates this similarity kind on two precomputed [`StringProfile`]s
    /// built through `interner`. Returns the same score as [`Self::eval_str`]
    /// on the profiled strings (see the equivalence property tests).
    ///
    /// Returns `None` when either profile lacks what this kind's kernel
    /// reads — built under another kind's spec, or at another gram length
    /// than a `QgramJaccard { q }` kind asks for — and for
    /// [`SimilarityKind::NumericMinMax`]; callers then score the strings
    /// with [`Self::eval_str`].
    pub fn eval_profiles(
        &self,
        a: &StringProfile,
        b: &StringProfile,
        interner: &TokenInterner,
    ) -> Option<f64> {
        let chars = a.chars().is_some() && b.chars().is_some();
        let tokens = a.tokens().is_some() && b.tokens().is_some();
        match *self {
            SimilarityKind::QgramJaccard { q } => {
                let q = Some(q.max(1));
                (a.q() == q && b.q() == q).then(|| prof_qgram_jaccard(a, b))
            }
            SimilarityKind::TokenJaccard => tokens.then(|| prof_token_jaccard(a, b)),
            SimilarityKind::EditSimilarity => chars.then(|| prof_edit_similarity(a, b)),
            SimilarityKind::JaroWinkler => chars.then(|| prof_jaro_winkler(a, b)),
            SimilarityKind::CosineTf => tokens.then(|| prof_cosine_tf(a, b, interner)),
            SimilarityKind::NumericMinMax => None,
        }
    }

    /// What a per-record profile must precompute to serve this kind —
    /// exactly the fields its kernel reads — or `None` for numeric columns
    /// (no string profile needed).
    pub fn profile_spec(&self) -> Option<ProfileSpec> {
        let none = ProfileSpec::default();
        match *self {
            SimilarityKind::QgramJaccard { q } => Some(ProfileSpec { q: Some(q), ..none }),
            SimilarityKind::EditSimilarity => Some(ProfileSpec { chars: true, peq: true, ..none }),
            SimilarityKind::JaroWinkler => Some(ProfileSpec { chars: true, ..none }),
            SimilarityKind::TokenJaccard | SimilarityKind::CosineTf => {
                Some(ProfileSpec { tokens: true, ..none })
            }
            SimilarityKind::NumericMinMax => None,
        }
    }

    /// Parses a token produced by [`Self::token`]. Returns `None` for
    /// anything unrecognized.
    pub fn from_token(s: &str) -> Option<SimilarityKind> {
        match s {
            "token-jaccard" => Some(SimilarityKind::TokenJaccard),
            "edit-similarity" => Some(SimilarityKind::EditSimilarity),
            "jaro-winkler" => Some(SimilarityKind::JaroWinkler),
            "cosine-tf" => Some(SimilarityKind::CosineTf),
            "numeric-min-max" => Some(SimilarityKind::NumericMinMax),
            other => {
                let q = other.strip_prefix("qgram-jaccard:")?;
                q.parse().ok().map(|q| SimilarityKind::QgramJaccard { q })
            }
        }
    }
}

/// Min–max normalized numeric similarity used by the paper for numeric and
/// date columns: `1 - |a - b| / range`, clamped to `[0, 1]`.
///
/// `range` is `max(C) - min(C)` over the column. A non-positive `range`
/// degenerates to exact-match similarity (1.0 iff `a == b`).
///
/// ```
/// use similarity::numeric_similarity;
/// assert_eq!(numeric_similarity(2001.0, 2001.0, 10.0), 1.0);
/// assert!((numeric_similarity(2008.0, 2006.0, 10.0) - 0.8).abs() < 1e-12);
/// ```
pub fn numeric_similarity(a: f64, b: f64, range: f64) -> f64 {
    if range <= 0.0 {
        return if a == b { 1.0 } else { 0.0 };
    }
    (1.0 - (a - b).abs() / range).clamp(0.0, 1.0)
}

/// Inverts [`numeric_similarity`]: given `a`, a target similarity `sim`, and
/// the column `range`, returns the two candidate values `b` with
/// `numeric_similarity(a, b, range) == sim` (paper Section IV-B1, Numeric).
pub fn numeric_inverse(a: f64, sim: f64, range: f64) -> (f64, f64) {
    let delta = (1.0 - sim.clamp(0.0, 1.0)) * range.max(0.0);
    (a - delta, a + delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_similarity_paper_example() {
        // Paper Example 2: year similarity of (2001, 2001) with range 10.
        assert_eq!(numeric_similarity(2001.0, 2001.0, 10.0), 1.0);
        // Paper Section IV-B1: e[C]=2008, sim=0.8, range=10 -> 2006 or 2010.
        let (lo, hi) = numeric_inverse(2008.0, 0.8, 10.0);
        assert_eq!((lo, hi), (2006.0, 2010.0));
        assert!((numeric_similarity(2008.0, lo, 10.0) - 0.8).abs() < 1e-12);
        assert!((numeric_similarity(2008.0, hi, 10.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn numeric_similarity_clamps() {
        assert_eq!(numeric_similarity(0.0, 100.0, 10.0), 0.0);
    }

    #[test]
    fn numeric_similarity_zero_range() {
        assert_eq!(numeric_similarity(5.0, 5.0, 0.0), 1.0);
        assert_eq!(numeric_similarity(5.0, 6.0, 0.0), 0.0);
    }

    #[test]
    fn kind_eval_dispatch() {
        let k = SimilarityKind::PAPER_TEXT;
        assert_eq!(k.eval_str("abc", "abc"), Some(1.0));
        assert_eq!(SimilarityKind::NumericMinMax.eval_str("1", "2"), None);
        assert_eq!(SimilarityKind::EditSimilarity.eval_str("ab", "ab"), Some(1.0));
        assert_eq!(SimilarityKind::TokenJaccard.eval_str("a b", "a b"), Some(1.0));
        assert_eq!(SimilarityKind::JaroWinkler.eval_str("ab", "ab"), Some(1.0));
        let cos = SimilarityKind::CosineTf.eval_str("a b", "b a").unwrap();
        assert!((cos - 1.0).abs() < 1e-9);
    }

    #[test]
    fn production_specs_build_only_what_their_kernel_reads() {
        let mut ctx = SimContext::new();
        let mut build = |kind: SimilarityKind| {
            ctx.profile("Adaptive Query", &kind.profile_spec().expect("a string kind"))
        };
        let p = build(SimilarityKind::PAPER_TEXT);
        assert_eq!(p.q(), Some(3));
        assert!(p.chars().is_none() && p.tokens().is_none() && p.block_grams().is_none());
        for kind in [SimilarityKind::EditSimilarity, SimilarityKind::JaroWinkler] {
            let p = build(kind);
            assert!(p.chars().is_some() && p.qgrams().is_none() && p.tokens().is_none());
            assert_eq!(p.peq().is_some(), kind == SimilarityKind::EditSimilarity);
        }
        assert!(ctx.interner().is_empty(), "no kind above reads tokens");
        let p = ctx.profile("Adaptive Query", &SimilarityKind::CosineTf.profile_spec().unwrap());
        assert!(p.tf().is_some() && p.qgrams().is_none() && p.chars().is_none());
        assert_eq!(ctx.interner().len(), 2);
        // A profile without the kernel's field is refused, not misread.
        assert_eq!(SimilarityKind::TokenJaccard.eval_profiles(&p, &p, ctx.interner()), Some(1.0));
        assert_eq!(SimilarityKind::PAPER_TEXT.eval_profiles(&p, &p, ctx.interner()), None);
    }
}
