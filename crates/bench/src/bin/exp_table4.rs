//! Reproduces **Table IV** (Exp-5, efficiency): offline (model training) and
//! online (synthesis) wall-clock time per dataset.
//!
//! Each dataset is generated, fitted and synthesized [`RUNS`] times from the
//! same seed, so every run does identical work; the table prints each
//! phase's median with its min–max, stamped with the commit, the cores the
//! OS offers and the pool's thread count.
//!
//! ```text
//! cargo run --release -p bench --bin exp_table4
//! ```

use bench::{rule, run_serd, SerdRun};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::datagen::DatasetKind;
use serd_repro::er_core::ColumnType;

/// Timed runs per dataset.
const RUNS: usize = 3;

/// `git describe --always --dirty` of the working tree, or `unknown`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `median (min-max)` of `secs`.
fn spread(secs: &mut [f64]) -> String {
    secs.sort_by(f64::total_cmp);
    format!("{:.2} ({:.2}-{:.2})", secs[secs.len() / 2], secs[0], secs[secs.len() - 1])
}

fn main() {
    println!("Table IV: efficiency evaluation (wall clock, this machine, scaled data)");
    println!(
        "commit {}, nproc {}, threads {}; median (min-max) of {RUNS} runs",
        commit(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        serd_repro::parallel::num_threads(),
    );
    rule(94);
    println!(
        "{:<16} {:>20} {:>20} {:>10} {:>10} {:>10}",
        "Dataset", "Offline (s)", "Online (s)", "|A|+|B|", "#text", "accepted"
    );
    rule(94);
    for kind in DatasetKind::all() {
        let runs: Vec<SerdRun> =
            (0..RUNS).map(|_| run_serd(kind, &mut StdRng::seed_from_u64(2022))).collect();
        let last = &runs[RUNS - 1];
        // Same seed, same work: every run synthesizes the same dataset.
        assert!(runs.iter().all(|r| r.serd.stats.accepted == last.serd.stats.accepted));
        let n_text = last
            .sim
            .er
            .a()
            .schema()
            .columns()
            .iter()
            .filter(|c| c.ctype == ColumnType::Text)
            .count();
        println!(
            "{:<16} {:>20} {:>20} {:>10} {:>10} {:>10}",
            kind.name(),
            spread(&mut runs.iter().map(|r| r.offline_secs).collect::<Vec<_>>()),
            spread(&mut runs.iter().map(|r| r.online_secs).collect::<Vec<_>>()),
            last.sim.er.a().len() + last.sim.er.b().len(),
            n_text,
            last.serd.stats.accepted,
        );
    }
    rule(94);
    println!("paper (full scale, Python/GPU-free MacBook): offline 3.5-9.8 h, online 1.6-79 min;");
    println!("shape to check: offline grows with #text columns, online with entity count.");
}
