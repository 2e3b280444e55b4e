//! Adversarial robustness of the `serd-model-v1` artifact reader: no input —
//! truncated, relabeled, or with NaN/Inf injected into any float field — may
//! panic; every corruption must surface as a structured `PersistError`.

use proptest::prelude::*;
use serd_repro::prelude::*;
use serd_repro::serd::PersistError;
use std::sync::OnceLock;

/// One tiny fitted model, shared across all properties (fitting is the
/// expensive part; the properties only exercise the reader).
fn artifact() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let sim = datagen::generate_with_min_matches(DatasetKind::Restaurant, 0.02, 8, &mut rng);
        let model =
            SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
                .expect("fit succeeds");
        model.to_persist_string()
    })
}

/// Line keys whose values are strings — the only places where a value token
/// may *legitimately* look like a hex float.
fn is_string_key(key: &str) -> bool {
    matches!(key, "t" | "d" | "data" | "name_a" | "name_b" | "name" | "integral")
}

fn is_hex_token(tok: &str, width: usize) -> bool {
    tok.len() == width && tok.bytes().all(|b| b.is_ascii_hexdigit())
}

#[test]
fn full_artifact_parses() {
    assert!(SerdModel::from_persist_str(artifact()).is_ok());
}

#[test]
fn wrong_magic_and_version_skew_are_distinguished() {
    let text = artifact();
    let skew = text.replacen("serd-model-v1", "serd-model-v7", 1);
    assert!(matches!(
        SerdModel::from_persist_str(&skew),
        Err(PersistError::VersionSkew { .. })
    ));
    let wrong = text.replacen("serd-model-v1", "not-a-model", 1);
    assert!(matches!(
        SerdModel::from_persist_str(&wrong),
        Err(PersistError::BadMagic { .. })
    ));
}

// The embedded mixture's `components` and `dim` header lines size the
// reader's buffers. Counts far beyond what the rest of the text can hold
// used to reach the allocator and abort the process; the property tests'
// 30-character junk lines never produce such a header.
#[test]
fn oversized_mixture_header_counts_error_instead_of_aborting() {
    let lines: Vec<&str> = artifact().lines().collect();
    let gmm = lines
        .iter()
        .position(|l| *l == "serd-gmm-v1")
        .expect("artifact embeds a mixture");
    for (key, value) in [
        ("components", "100000000000"),
        ("dim", "100000000000"),
        ("dim", "4294967296"),
    ] {
        let li = gmm
            + lines[gmm..]
                .iter()
                .position(|l| l.starts_with(&format!("{key} ")))
                .expect("header line present");
        let mut mutated: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        mutated[li] = format!("{key} {value}");
        let text = mutated.join("\n") + "\n";
        assert!(
            SerdModel::from_persist_str(&text).is_err(),
            "`{key} {value}` on line {} was accepted",
            li + 1
        );
    }
}

// Each text model's `candidates` line sets how many decoding lanes (one RNG
// seed and one set of KV caches each) every text value allocates. A count
// far beyond any real configuration used to load fine and then abort the
// process at synthesis time.
#[test]
fn oversized_text_model_candidate_count_errors_instead_of_aborting() {
    let text = artifact();
    let line = text
        .lines()
        .find(|l| l.starts_with("candidates "))
        .expect("artifact embeds a text model");
    let mutated = text.replacen(&format!("{line}\n"), "candidates 100000000000\n", 1);
    assert_ne!(mutated, text);
    assert!(
        SerdModel::from_persist_str(&mutated).is_err(),
        "`candidates 100000000000` was accepted"
    );
}

// The O-mixture's `pi` line used to be clamped into [0, 1] before its range
// was checked, so an artifact claiming π = +Inf or 2.0 loaded silently and
// synthesized with π = 1.
#[test]
fn out_of_range_omixture_pi_errors_and_the_cli_exits_5() {
    let text = artifact();
    let line = text.lines().find(|l| l.starts_with("pi ")).expect("artifact embeds π");
    let dir = std::env::temp_dir().join(format!("serd_persist_pi_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.serd");
    for pi in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.5, -0.5] {
        let mutated = text.replacen(line, &format!("pi {:016x}", pi.to_bits()), 1);
        assert_ne!(mutated, text);
        assert!(
            matches!(SerdModel::from_persist_str(&mutated), Err(PersistError::Invalid { .. })),
            "π = {pi} was accepted"
        );
        std::fs::write(&path, &mutated).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_serd-repro"))
            .args(["synthesize", "--model", path.to_str().unwrap()])
            .args(["--out", dir.to_str().unwrap()])
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(5), "π = {pi}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Cutting the artifact at any line boundary must yield an error, never a
    // panic and never a silently short model.
    #[test]
    fn truncation_at_any_line_errors(frac in 0usize..10_000) {
        let lines: Vec<&str> = artifact().lines().collect();
        let cut = frac * (lines.len() - 1) / 10_000;
        let partial: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
        prop_assert!(
            SerdModel::from_persist_str(&partial).is_err(),
            "truncation after {cut}/{} lines was accepted",
            lines.len()
        );
    }

    // Injecting a NaN or Inf bit pattern into any float token of any
    // non-string line must be rejected: every float field in the model is
    // finiteness-checked.
    #[test]
    fn nonfinite_floats_anywhere_error(pick in 0usize..10_000, inf in any::<bool>()) {
        let lines: Vec<&str> = artifact().lines().collect();
        // Collect (line, token) positions holding hex-float tokens.
        let mut slots: Vec<(usize, usize, usize)> = Vec::new();
        for (li, line) in lines.iter().enumerate() {
            let mut toks = line.split_whitespace();
            let Some(key) = toks.next() else { continue };
            if is_string_key(key) {
                continue;
            }
            for (ti, tok) in toks.enumerate() {
                if is_hex_token(tok, 16) {
                    slots.push((li, ti + 1, 16));
                } else if is_hex_token(tok, 8) {
                    slots.push((li, ti + 1, 8));
                }
            }
        }
        prop_assert!(!slots.is_empty(), "artifact has no float tokens?");
        let (li, ti, width) = slots[pick % slots.len()];
        let bad64 = format!("{:016x}", if inf { f64::INFINITY } else { f64::NAN }.to_bits());
        let bad32 = format!("{:08x}", if inf { f32::INFINITY } else { f32::NAN }.to_bits());
        let mut toks: Vec<String> = lines[li].split_whitespace().map(str::to_string).collect();
        toks[ti] = if width == 16 { bad64 } else { bad32 };
        let mut mutated: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        mutated[li] = toks.join(" ");
        let text = mutated.join("\n") + "\n";
        let res = SerdModel::from_persist_str(&text);
        prop_assert!(
            res.is_err(),
            "non-finite float on line {} accepted: {:?}",
            li + 1,
            lines[li]
        );
    }

    // Replacing any single line with garbage must error, never panic. (This
    // also covers wrong keys, malformed counts, and bad escapes.)
    #[test]
    fn garbage_lines_never_panic(pick in 0usize..10_000, junk in "[ -~]{0,30}") {
        let lines: Vec<&str> = artifact().lines().collect();
        let li = pick % lines.len();
        let mut mutated: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        mutated[li] = junk.clone();
        let text = mutated.join("\n") + "\n";
        // Must return (almost always an error); the property is "no panic",
        // plus: if it somehow still parses, the junk was equivalent and the
        // model must re-serialize cleanly.
        if let Ok(model) = SerdModel::from_persist_str(&text) {
            prop_assert!(!model.to_persist_string().is_empty());
        }
    }
}
