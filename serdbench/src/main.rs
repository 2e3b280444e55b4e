//! The SERD benchmark: one command, three workloads, timed or traced.
//!
//! ```text
//! cargo run --release --manifest-path serdbench/Cargo.toml -- \
//!     --workload <online|offline|serve> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! A timed run (`--trace 0`) prints every end-to-end metric; a traced run
//! (`--trace 1`) replays each layer's public calls under spans and prints
//! every per-layer metric. Human-readable lines come first; the last line
//! of standard output is the JSON result. Each run also writes its result
//! (with the run stamp and output digests) and, when traced, its spans to
//! `.bench_out/` in the checkout. Exit status is 0 only when every output
//! check passed.

mod layers;
mod offline;
mod online;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use report::{json_num, json_str, metrics_json, Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

/// What every workload receives.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Origin of span timestamps.
    pub epoch: Instant,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Online,
    Offline,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "online" => Some(Workload::Online),
            "offline" => Some(Workload::Offline),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Online => "online",
            Workload::Offline => "offline",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: serdbench --workload <online|offline|serve> --seed <u64> --seconds <1-600> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload at the benchmark's sizes (`tiny` shrinks every input
/// for the test suite's smoke runs).
fn run_workload(w: Workload, cfg: &RunCfg, tiny: bool) -> Result<Report, String> {
    match (w, tiny) {
        (Workload::Online, false) => online::run(cfg, &online::FULL),
        (Workload::Online, true) => online::run(cfg, &online::TINY),
        (Workload::Offline, false) => offline::run(cfg, &offline::FULL),
        (Workload::Offline, true) => offline::run(cfg, &offline::TINY),
        (Workload::Serve, false) => serve::run(cfg, &serve::FULL),
        (Workload::Serve, true) => serve::run(cfg, &serve::TINY),
    }
}

fn stamp_json(args: &Args) -> String {
    format!(
        "{{\"commit\": {}, \"source_fnv\": {}, \"nproc\": {}, \"threads\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"mode\": {}, \"obs\": {}}}",
        json_str(&sys::commit()),
        json_str(&sys::source_digest()),
        sys::nproc(),
        parallel::num_threads(),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        json_str(if args.trace { "traced" } else { "timed" }),
        json_str(if args.trace { "on" } else { "off" }),
    )
}

fn print_lines(args: &Args, rep: &Report) {
    let w = args.workload;
    println!(
        "serdbench {} seed={} seconds={} {}",
        w.name(),
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "timed" }
    );
    if args.trace {
        for (name, unit) in PER_LAYER {
            let (v, tag) = match rep.layers.get(name) {
                Some(v) => (*v, ""),
                None => (0.0, "  (n/a on this workload)"),
            };
            println!("  {name:<30} {:>16} {unit}{tag}", json_num(v));
        }
        let stats = trace::by_name(&rep.spans);
        println!("  span self time (name calls total_s self_s):");
        for (name, s) in &stats {
            println!(
                "    {name:<28} {:>7} {:>12.6} {:>12.6}",
                s.calls, s.total_s, s.self_s
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = rep.e2e.get(name).copied().unwrap_or(0.0);
            println!("  {name:<30} {:>16} {unit}", json_num(v));
        }
    }
    let failed_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!(
        "  {:<30} {:>16} ratio",
        "failed_frac",
        json_num(failed_frac)
    );
    for (name, v, unit) in &rep.notes {
        println!(
            "  {:<30} {:>16} {unit}",
            format!("{}.{name}", w.name()),
            json_num(*v)
        );
    }
    for c in &rep.checks {
        println!(
            "  check {:<30} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
}

fn write_outputs(args: &Args, rep: &Report, stamp: &str, metrics: &str) -> std::io::Result<()> {
    let dir = sys::out_dir();
    std::fs::create_dir_all(&dir)?;
    let mode = if args.trace { "traced" } else { "timed" };
    let base = format!("{}-seed{}-{mode}", args.workload.name(), args.seed);
    let checks: Vec<String> = rep
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    let digests: Vec<String> = rep
        .digests
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let notes: Vec<String> = rep
        .notes
        .iter()
        .map(|(k, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    let samples: Vec<String> = rep
        .samples
        .iter()
        .map(|(k, xs)| {
            let xs: Vec<String> = xs.iter().map(|x| json_num(*x)).collect();
            format!("{}: [{}]", json_str(k), xs.join(", "))
        })
        .collect();
    let body = format!(
        "{{\"stamp\": {stamp}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}, \"notes\": {{{}}}, \"checks\": [{}], \"digests\": {{{}}}, \"samples\": {{{}}}}}\n",
        rep.correct(),
        rep.attempted,
        rep.failed,
        notes.join(", "),
        checks.join(", "),
        digests.join(", "),
        samples.join(", "),
    );
    std::fs::write(dir.join(format!("{base}.json")), body)?;
    if args.trace {
        std::fs::write(
            dir.join(format!("{base}-spans.jsonl")),
            trace::to_jsonl(&rep.spans),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serdbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Timed runs keep the program's observability layer off whatever
    // SERD_OBS says. Traced runs turn it on: `parallel::pool_stats` counts
    // only while it records, and its cost is part of the tracing overhead.
    obs::set_mode(if args.trace {
        obs::Mode::Json
    } else {
        obs::Mode::Off
    });
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        epoch: Instant::now(),
    };
    let stamp = stamp_json(&args);
    println!("stamp {stamp}");
    let rep = match run_workload(args.workload, &cfg, false) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serdbench: {} run failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    print_lines(&args, &rep);
    let metrics = if args.trace {
        metrics_json(&PER_LAYER, &rep.layers)
    } else {
        metrics_json(&END_TO_END, &rep.e2e)
    };
    if let Err(e) = write_outputs(&args, &rep, &stamp, &metrics) {
        eprintln!("serdbench: writing .bench_out failed: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        rep.correct(),
        rep.attempted.max(1),
        rep.failed
    );
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Serve, 3, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload online --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload online --seed 3 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload online --seed 3 --seconds 5")).is_err());
        assert!(parse_args(&argv("--workload online --seed x --seconds 5 --trace 0")).is_err());
    }

    fn tiny_run(w: Workload, trace: bool) -> Report {
        let cfg = RunCfg {
            seed: 5,
            seconds: 1.0,
            trace,
            epoch: Instant::now(),
        };
        let rep = run_workload(w, &cfg, true).expect("tiny run completes");
        let failed: Vec<_> = rep.checks.iter().filter(|c| !c.ok).collect();
        assert!(failed.is_empty(), "{w:?}: failed checks {failed:?}");
        assert_eq!(rep.failed, 0, "{w:?}");
        rep
    }

    /// Minimum-size runs of each workload, timed and traced: no output check
    /// trips, every end-to-end metric is positive on every workload, and
    /// every per-layer metric is measured by some workload's traced run.
    /// Slow in a debug build; run with `cargo test --release`.
    #[test]
    fn tiny_runs_pass_their_checks_and_cover_every_metric() {
        let mut layers = std::collections::BTreeSet::new();
        for w in [Workload::Online, Workload::Offline, Workload::Serve] {
            let timed = tiny_run(w, false);
            for (name, _) in END_TO_END {
                let v = timed.e2e.get(name).copied().unwrap_or(0.0);
                assert!(v.is_finite() && v > 0.0, "{w:?}: {name} = {v}");
            }
            let traced = tiny_run(w, true);
            assert!(traced.layers.values().all(|v| v.is_finite()), "{w:?}");
            layers.extend(traced.layers.keys().copied());
        }
        for (name, _) in PER_LAYER {
            assert!(layers.contains(name), "{name} is measured by no workload");
        }
    }
}
