//! Integration tests for the `serd-repro` CLI binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_serd-repro"))
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().expect("run binary");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("generate"));
    assert!(text.contains("synthesize"));
    assert!(text.contains("profile"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("run binary");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn bad_dataset_rejected() {
    let out = bin()
        .args(["generate", "--dataset", "not-a-dataset"])
        .output()
        .expect("run binary");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));
}

#[test]
fn missing_option_value_rejected() {
    let out = bin().args(["generate", "--scale"]).output().expect("run binary");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value"));
}

#[test]
fn generate_writes_csv_artifacts() {
    let dir = std::env::temp_dir().join(format!("serd_cli_test_{}", std::process::id()));
    let out = bin()
        .args([
            "generate",
            "--dataset",
            "restaurant",
            "--scale",
            "0.02",
            "--min-matches",
            "4",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("run binary");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for file in ["A.csv", "B.csv", "matches.csv", "background_col0.txt"] {
        let path = dir.join(file);
        assert!(path.exists(), "missing {}", path.display());
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
    }
    // The CSV is loadable and rectangular.
    let text = std::fs::read_to_string(dir.join("A.csv")).unwrap();
    let records = serd_repro::er_core::csv::parse(&text).unwrap();
    assert!(records.len() > 1);
    let width = records[0].len();
    assert!(records.iter().all(|r| r.len() == width));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fit_then_synthesize_model_matches_direct_run() {
    let base = std::env::temp_dir().join(format!("serd_cli_offline_{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let model_path = base.join("model.serd");
    let fit_dir = base.join("from-model");
    let direct_dir = base.join("direct");
    let common = [
        "--dataset",
        "restaurant",
        "--scale",
        "0.02",
        "--min-matches",
        "4",
        "--seed",
        "11",
    ];

    // Offline phase: fit and persist the model artifact (`--out` is the
    // model path for `fit`).
    let out = bin()
        .arg("fit")
        .args(common)
        .args(["--out", model_path.to_str().unwrap()])
        .output()
        .expect("run fit");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(model_path.exists(), "fit did not write {}", model_path.display());

    // Online phase from the artifact.
    let out = bin()
        .arg("synthesize")
        .args(common)
        .args(["--model", model_path.to_str().unwrap()])
        .args(["--out", fit_dir.to_str().unwrap()])
        .output()
        .expect("run synthesize --model");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Direct run (fit + synthesize in one process) at the same seed.
    let out = bin()
        .arg("synthesize")
        .args(common)
        .args(["--out", direct_dir.to_str().unwrap()])
        .output()
        .expect("run synthesize");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    for file in ["A_syn.csv", "B_syn.csv", "matches_syn.csv"] {
        let from_model = std::fs::read_to_string(fit_dir.join(file)).unwrap();
        let direct = std::fs::read_to_string(direct_dir.join(file)).unwrap();
        assert_eq!(from_model, direct, "{file} differs between --model and direct runs");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn fit_prints_the_run_report_under_serd_obs() {
    let base = std::env::temp_dir().join(format!("serd_cli_fit_obs_{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let fit = |obs: &str, name: &str| {
        bin()
            .env("SERD_OBS", obs)
            .args(["fit", "--dataset", "restaurant", "--scale", "0.02", "--min-matches", "4"])
            .args(["--seed", "11", "--out", base.join(name).to_str().unwrap()])
            .output()
            .expect("run fit")
    };
    let out = fit("json", "obs.serd");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8_lossy(&out.stderr);
    let report = report.trim();
    assert!(report.starts_with('{') && report.ends_with('}'), "{report}");
    let keys =
        ["\"fit\"", "\"blocking\"", "\"gmm.fit_auto\"", "\"transformer.train\"", "dpsgd.epsilon"];
    for key in keys {
        assert!(report.contains(key), "fit report lacks {key}:\n{report}");
    }
    // Recording is inert: the artifact matches an unobserved fit's, and
    // with SERD_OBS off nothing is reported.
    let quiet = fit("off", "quiet.serd");
    assert!(quiet.status.success(), "{}", String::from_utf8_lossy(&quiet.stderr));
    assert!(quiet.stderr.is_empty(), "{}", String::from_utf8_lossy(&quiet.stderr));
    assert_eq!(
        std::fs::read(base.join("obs.serd")).unwrap(),
        std::fs::read(base.join("quiet.serd")).unwrap()
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn fit_refuses_data_exported_for_another_dataset() {
    // DBLP-ACM and Restaurant both have four columns; only the header
    // names tell the default `--dataset restaurant` that this is not its
    // data.
    let dir = std::env::temp_dir().join(format!("serd_cli_wrong_kind_{}", std::process::id()));
    let out = bin()
        .args(["generate", "--dataset", "dblp-acm", "--entities", "200", "--seed", "3"])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let model = dir.join("model.serd");
    let out = bin()
        .args(["fit", "--data", dir.to_str().unwrap(), "--out", model.to_str().unwrap()])
        .output()
        .expect("run fit");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(7), "{err}");
    assert!(
        err.contains("A.csv") && err.contains("\"title\"") && err.contains("\"name\""),
        "{err}"
    );
    assert!(!model.exists(), "an artifact was written from mismatched data");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fit_marginals_backend_produces_a_reproducible_artifact() {
    let base = std::env::temp_dir().join(format!("serd_cli_marginals_{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let model_path = base.join("marginals.serd");
    let common = [
        "--dataset",
        "restaurant",
        "--scale",
        "0.02",
        "--min-matches",
        "4",
        "--seed",
        "11",
    ];

    let out = bin()
        .arg("fit")
        .args(common)
        .args(["--backend", "marginals", "--out", model_path.to_str().unwrap()])
        .output()
        .expect("run fit --backend marginals");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("marginals backend"), "stdout: {stdout}");
    let artifact = std::fs::read_to_string(&model_path).unwrap();
    assert!(artifact.contains("serd-marginals-v1"), "artifact lacks marginals section");

    // The artifact loads and `synthesize --model` is bit-reproducible.
    let run = |dir: &std::path::Path| {
        let out = bin()
            .arg("synthesize")
            .args(common)
            .args(["--model", model_path.to_str().unwrap()])
            .args(["--out", dir.to_str().unwrap()])
            .output()
            .expect("run synthesize --model");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(dir.join("A_syn.csv")).unwrap()
    };
    let a1 = run(&base.join("run1"));
    let a2 = run(&base.join("run2"));
    assert_eq!(a1, a2, "synthesize --model is not bit-reproducible");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn unknown_backend_exits_2_and_lists_the_valid_set() {
    let out = bin()
        .args(["fit", "--backend", "ctgan"])
        .output()
        .expect("run binary");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown backend \"ctgan\""), "stderr: {err}");
    assert!(
        err.contains("valid backends are gan, marginals"),
        "stderr must list the valid backends: {err}"
    );
}

#[test]
fn synthesize_rejects_corrupt_model() {
    let dir = std::env::temp_dir().join(format!("serd_cli_badmodel_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.serd");
    std::fs::write(&path, "not-a-model\n").unwrap();
    let out = bin()
        .args(["synthesize", "--model", path.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .expect("run binary");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("model"), "unexpected stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Exit codes are part of the API contract (`ApiError::exit_code`): scripts
/// and CI distinguish "bad flag" from "missing model" from "corrupt model".
#[test]
fn exit_codes_follow_the_api_error_taxonomy() {
    // Bad request (unknown dataset / unknown command / unknown option) -> 2.
    for args in [
        &["generate", "--dataset", "nope"][..],
        &["frobnicate"][..],
        &["generate", "--alpha", "0.5"][..],
    ] {
        let out = bin().args(args).output().expect("run binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
    // Missing model artifact -> 3 (not found).
    let out = bin()
        .args(["synthesize", "--model", "/definitely/not/here.serd"])
        .output()
        .expect("run binary");
    assert_eq!(out.status.code(), Some(3));
    // Corrupt model artifact -> 5.
    let dir = std::env::temp_dir().join(format!("serd_cli_exitcode_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.serd");
    std::fs::write(&path, "not-a-model\n").unwrap();
    let out = bin()
        .args(["synthesize", "--model", path.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .expect("run binary");
    assert_eq!(out.status.code(), Some(5));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_is_deterministic_per_seed() {
    let run = |dir: &std::path::Path| {
        let out = bin()
            .args([
                "generate", "--dataset", "restaurant", "--scale", "0.02",
                "--min-matches", "4", "--seed", "123", "--out",
                dir.to_str().unwrap(),
            ])
            .output()
            .expect("run binary");
        assert!(out.status.success());
        std::fs::read_to_string(dir.join("A.csv")).unwrap()
    };
    let d1 = std::env::temp_dir().join(format!("serd_cli_seed_a_{}", std::process::id()));
    let d2 = std::env::temp_dir().join(format!("serd_cli_seed_b_{}", std::process::id()));
    let a1 = run(&d1);
    let a2 = run(&d2);
    assert_eq!(a1, a2);
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d2).ok();
}
