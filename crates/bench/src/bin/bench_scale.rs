//! Scale benchmark for the ingest-to-blocking path (DESIGN.md §13): stream
//! one n-entity generation run to CSV, stream it back in, block it with the
//! sharded q-gram index, and build a (possibly budgeted) ProfileCache —
//! measuring records/sec per stage and the process's peak RSS, and failing
//! hard on any dropped row or candidate-set divergence.
//!
//! One n per process: peak RSS comes from `VmHWM` in `/proc/self/status`,
//! which is a high-water mark, so mixing sizes in one process would let the
//! largest run mask the others. `scripts/bench_scale.sh` loops the sizes and
//! assembles `BENCH_scale.json`.
//!
//! Usage: `bench_scale [--n N] [--dataset <name>] [--seed S]`
//! Environment: `SERD_PROFILE_BUDGET` bounds ProfileCache residency (the
//! build honors it natively); `BENCH_SCALE_VERIFY=0|1` forces the candidate
//! equality cross-check off/on (default: on up to 200k entities).

use serd_repro::datagen::{self, DatasetKind, ScaleSpec};
use serd_repro::er_core::blocking;
use serd_repro::er_core::ProfileCache;
use std::time::Instant;

fn parse_args() -> (usize, DatasetKind, u64) {
    let mut n = 100_000usize;
    let mut kind = DatasetKind::Restaurant;
    let mut seed = 42u64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |key: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {key}"))
        };
        match a.as_str() {
            "--n" => n = val("--n").parse().expect("--n"),
            "--seed" => seed = val("--seed").parse().expect("--seed"),
            "--dataset" => {
                kind = match val("--dataset").as_str() {
                    "dblp-acm" => DatasetKind::DblpAcm,
                    "restaurant" => DatasetKind::Restaurant,
                    "walmart-amazon" => DatasetKind::WalmartAmazon,
                    "itunes-amazon" => DatasetKind::ItunesAmazon,
                    other => panic!("unknown dataset {other:?}"),
                }
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    (n, kind, seed)
}

/// Peak resident set size of this process in kB, from the kernel's
/// high-water mark (Linux only; `None` elsewhere).
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

fn main() {
    let (n, kind, seed) = parse_args();
    let dir = std::env::temp_dir().join(format!("serd_bench_scale_{}_{n}", std::process::id()));
    let spec = ScaleSpec::for_entities(kind, n);

    let t = Instant::now();
    let stats = datagen::export_dir(&spec, seed, &dir).expect("export");
    let gen_secs = t.elapsed().as_secs_f64();
    let rows_written = stats.rows_a + stats.rows_b;

    let t = Instant::now();
    let sim = datagen::ingest_dir(kind, &dir).expect("ingest");
    let ingest_secs = t.elapsed().as_secs_f64();
    let (a, b) = (sim.er.a(), sim.er.b());
    let rows_ingested = a.len() + b.len();
    let dropped = rows_written as i64 - rows_ingested as i64;

    let t = Instant::now();
    let candidates = blocking::candidate_pairs(a, b, 3, 20);
    let block_secs = t.elapsed().as_secs_f64();

    // Cross-check the sharded candidate set against the monolithic
    // single-shard reference. Quadratic-ish cost on top of the measured run,
    // so it defaults off above 200k entities — but never silently: the JSON
    // records whether it ran.
    let verify = match std::env::var("BENCH_SCALE_VERIFY").ok().as_deref() {
        Some("0") => false,
        Some(_) => true,
        None => n <= 200_000,
    };
    let mut mismatch = false;
    if verify {
        let reference = blocking::candidate_pairs_sharded(a, b, 3, 20, 1);
        mismatch = candidates != reference;
    }

    let t = Instant::now();
    let cache = ProfileCache::build(a, b, 3);
    let profile_secs = t.elapsed().as_secs_f64();
    let resident = cache.resident();
    let budget = cache.budget();
    let over_budget = budget.is_some_and(|bud| resident > bud);
    if verify && !mismatch {
        mismatch = blocking::candidate_pairs_cached(a, b, &cache, 3, 20) != candidates;
    }

    let peak_rss_kb = vm_hwm_kb();
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        r#"{{
  "dataset": "{dataset}",
  "n": {n},
  "size_a": {size_a},
  "size_b": {size_b},
  "planted_matches": {planted},
  "gen_secs": {gen_secs:.3},
  "gen_records_per_sec": {gen_rate:.0},
  "ingest_secs": {ingest_secs:.3},
  "ingest_records_per_sec": {ingest_rate:.0},
  "rows_written": {rows_written},
  "rows_ingested": {rows_ingested},
  "dropped": {dropped},
  "block_secs": {block_secs:.3},
  "blocking_shards": {shards},
  "candidates": {cands},
  "candidates_verified": {verified},
  "candidate_mismatch": {mismatch},
  "profile_secs": {profile_secs:.3},
  "profile_budget": {budget},
  "profile_resident": {resident},
  "peak_rss_kb": {rss}
}}"#,
        dataset = kind.name(),
        size_a = stats.rows_a,
        size_b = stats.rows_b,
        planted = stats.matches,
        gen_rate = rows_written as f64 / gen_secs.max(1e-9),
        ingest_rate = rows_ingested as f64 / ingest_secs.max(1e-9),
        shards = serd_repro::parallel::num_threads(),
        cands = candidates.len(),
        verified = verify,
        budget = json_opt(budget.map(|b| b as u64)),
        rss = json_opt(peak_rss_kb),
    );

    if dropped != 0 {
        eprintln!("FAIL: {dropped} rows dropped between export and ingest");
        std::process::exit(1);
    }
    if mismatch {
        eprintln!("FAIL: sharded/cached candidate sets diverged from the reference");
        std::process::exit(1);
    }
    if over_budget {
        eprintln!("FAIL: ProfileCache residency {resident} exceeds budget {budget:?}");
        std::process::exit(1);
    }
}
