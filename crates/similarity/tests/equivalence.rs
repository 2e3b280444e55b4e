//! Property tests pinning the profile kernels to the scalar kernels.
//!
//! Every profile-based kernel must return the *bit-identical* `f64` the
//! scalar kernel returns on the raw strings — the pipeline's reproducibility
//! guarantees rest on the two paths being interchangeable. The generator
//! mixes ASCII with case-folding hazards (final sigma 'Σ', accented latin),
//! CJK, and punctuation, and lengths cross the 64-char Myers block boundary.

use proptest::prelude::*;
use similarity::*;

/// Mixed-script strings: uppercase (exercises lowercase-once tokenizer
/// semantics, including Greek final sigma), accents, CJK, digits,
/// punctuation/separators, and enough length to cross the u64 Myers block.
fn wild_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 ÀÉüçßΣΟΔοσδ日本語デタ一二三.,;'_-]{0,72}"
}

fn profiles(a: &str, b: &str, q: usize) -> (StringProfile, StringProfile, SimContext) {
    let mut ctx = SimContext::new();
    let spec = ProfileSpec::full(q);
    let pa = ctx.profile(a, &spec);
    let pb = ctx.profile(b, &spec);
    (pa, pb, ctx)
}

proptest! {
    #[test]
    fn qgram_kernels_agree(a in wild_string(), b in wild_string()) {
        for q in [1usize, 2, 3, 4] {
            let (pa, pb, _ctx) = profiles(&a, &b, q);
            prop_assert_eq!(
                prof_qgram_jaccard(&pa, &pb).to_bits(),
                qgram_jaccard(&a, &b, q).to_bits(),
                "jaccard q={} a={:?} b={:?}", q, &a, &b
            );
            prop_assert_eq!(
                prof_qgram_overlap(&pa, &pb).to_bits(),
                qgram_overlap(&a, &b, q).to_bits(),
                "overlap q={} a={:?} b={:?}", q, &a, &b
            );
            prop_assert_eq!(
                prof_qgram_dice(&pa, &pb).to_bits(),
                qgram_dice(&a, &b, q).to_bits(),
                "dice q={} a={:?} b={:?}", q, &a, &b
            );
        }
    }

    #[test]
    fn edit_kernels_agree(a in wild_string(), b in wild_string()) {
        let (pa, pb, _ctx) = profiles(&a, &b, 3);
        prop_assert_eq!(prof_levenshtein(&pa, &pb), levenshtein(&a, &b));
        prop_assert_eq!(
            prof_edit_similarity(&pa, &pb).to_bits(),
            edit_similarity(&a, &b).to_bits()
        );
    }

    #[test]
    fn jaro_kernels_agree(a in wild_string(), b in wild_string()) {
        let (pa, pb, _ctx) = profiles(&a, &b, 3);
        prop_assert_eq!(prof_jaro(&pa, &pb).to_bits(), jaro(&a, &b).to_bits());
        prop_assert_eq!(
            prof_jaro_winkler(&pa, &pb).to_bits(),
            jaro_winkler(&a, &b).to_bits()
        );
    }

    #[test]
    fn token_kernels_agree(a in wild_string(), b in wild_string()) {
        let (pa, pb, ctx) = profiles(&a, &b, 3);
        prop_assert_eq!(
            prof_token_jaccard(&pa, &pb).to_bits(),
            token_jaccard(&a, &b).to_bits()
        );
        prop_assert_eq!(
            prof_token_dice(&pa, &pb).to_bits(),
            token_dice(&a, &b).to_bits()
        );
        prop_assert_eq!(
            prof_monge_elkan(&pa, &pb, ctx.interner()).to_bits(),
            monge_elkan(&a, &b).to_bits()
        );
    }

    #[test]
    fn cosine_kernels_agree(a in wild_string(), b in wild_string()) {
        let (pa, pb, ctx) = profiles(&a, &b, 3);
        prop_assert_eq!(
            prof_cosine_tf(&pa, &pb, ctx.interner()).to_bits(),
            cosine_tf(&a, &b).to_bits()
        );
    }

    #[test]
    fn tfidf_kernels_agree(
        docs in prop::collection::vec("[a-zA-Z ÀüΣσ日本0-9]{0,32}", 1..6),
        a in wild_string(),
        b in wild_string(),
    ) {
        let tfidf = TfIdf::fit(docs.iter().map(String::as_str));
        let mut ctx = SimContext::new();
        let spec = ProfileSpec { tokens: true, ..ProfileSpec::default() };
        let pa = ctx.profile(&a, &spec);
        let pb = ctx.profile(&b, &spec);
        let idf = InternedIdf::fit_from(&tfidf, ctx.interner_mut());
        prop_assert_eq!(
            prof_cosine_tfidf(&pa, &pb, ctx.interner(), &idf).to_bits(),
            tfidf.cosine(&a, &b).to_bits()
        );
    }

    #[test]
    fn dispatch_agrees_with_eval_str(a in wild_string(), b in wild_string()) {
        for kind in [
            SimilarityKind::QgramJaccard { q: 3 },
            SimilarityKind::QgramJaccard { q: 1 },
            SimilarityKind::TokenJaccard,
            SimilarityKind::EditSimilarity,
            SimilarityKind::JaroWinkler,
            SimilarityKind::CosineTf,
        ] {
            // Full profiles, and the kind's own production spec with and
            // without the blocking keys `profile_specs` adds to the
            // blocking column: a production spec that misses a field its
            // kernel reads fails here.
            let own = kind.profile_spec().expect("a string kind");
            let full = ProfileSpec::full(own.q.unwrap_or(3));
            for spec in [full, own, ProfileSpec { block_q: Some(3), ..own }] {
                let mut ctx = SimContext::new();
                let pa = ctx.profile(&a, &spec);
                let pb = ctx.profile(&b, &spec);
                let fast = kind.eval_profiles(&pa, &pb, ctx.interner()).map(f64::to_bits);
                let slow = kind.eval_str(&a, &b).map(f64::to_bits);
                prop_assert_eq!(fast, slow, "{:?} {:?} a={:?} b={:?}", kind, spec, &a, &b);
            }
        }
        // Profiles built at another gram length are refused, so callers
        // score the strings instead.
        let (pa, pb, ctx) = profiles(&a, &b, 3);
        let other_q = SimilarityKind::QgramJaccard { q: 5 };
        prop_assert_eq!(other_q.eval_profiles(&pa, &pb, ctx.interner()), None);
    }

    #[test]
    fn block_grams_agree_with_direct_hashing(s in wild_string()) {
        let lower = s.to_lowercase();
        let direct = block_gram_hashes(&lower, 3);
        let mut ctx = SimContext::new();
        let p = ctx.profile(&s, &ProfileSpec::full(3));
        prop_assert_eq!(p.block_grams_at(3), Some(&direct[..]));
        prop_assert_eq!(p.block_grams_at(2), None);
    }

    #[test]
    fn raw_then_intern_equals_one_shot_build(s in wild_string()) {
        // The two-phase (parallel-safe) build path must produce the same
        // profile as the one-shot path over the same interner sequence.
        let spec = ProfileSpec::full(3);
        let mut ctx1 = SimContext::new();
        let one = ctx1.profile(&s, &spec);
        let mut ctx2 = SimContext::new();
        let two = RawProfile::build(&s, &spec).intern(ctx2.interner_mut());
        prop_assert_eq!(one.qgrams(), two.qgrams());
        prop_assert_eq!(one.tokens(), two.tokens());
        prop_assert_eq!(one.token_set(), two.token_set());
        prop_assert_eq!(one.chars(), two.chars());
        prop_assert_eq!(one.block_grams(), two.block_grams());
    }
}
