//! Vendored, `std`-only stand-in for the subset of Criterion this workspace
//! uses: `Criterion`, benchmark groups with `sample_size` /
//! `measurement_time` / `warm_up_time`, `bench_function`, `Bencher::iter` /
//! `iter_batched`, `black_box`, and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Measurement model: each benchmark is warmed up, an iteration count is
//! calibrated so one sample lasts roughly `measurement_time / sample_size`,
//! and per-iteration wall time is collected over `sample_size` samples. The
//! median, minimum, and maximum sample means are reported.
//!
//! Machine-readable output: when the `CRITERION_JSON` environment variable
//! names a file, one JSON object per benchmark is appended to it:
//! `{"id": "...", "median_ns": ..., "min_ns": ..., "max_ns": ..., "threads": ...}`.
//! `scripts/bench_sim.sh` and `scripts/bench_decode.sh` build their
//! `BENCH_*.json` files from this.

use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Cargo bench passes `--bench`; any other free argument is a
        // substring filter on benchmark ids, like upstream.
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            if !arg.starts_with('-') {
                filter = Some(arg);
            }
        }
        Criterion { filter }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks sharing measurement settings.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
        }
    }

    /// Benchmarks `f` under the default settings, outside any group.
    pub fn bench_function(&mut self, id: impl AsRef<str>, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let id = id.as_ref();
        let settings = Settings {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
        };
        run_benchmark(self, id, &settings, f);
        self
    }

    fn matches(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }
}

struct Settings {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

/// A group of benchmarks with shared measurement settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the total measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Sets the warm-up duration per benchmark.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function(&mut self, id: impl AsRef<str>, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let id = id.as_ref();
        let full = format!("{}/{}", self.name, id);
        let settings = Settings {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
        };
        run_benchmark(self.criterion, &full, &settings, f);
        self
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(&mut self) {}
}

/// Controls how `iter_batched` amortizes setup allocations. All variants
/// behave identically here (setup always runs outside the timed section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Hands the routine its iteration count and records elapsed time.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back calls of `routine`.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` on fresh inputs from `setup`, excluding setup time.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_benchmark(
    criterion: &Criterion,
    id: &str,
    settings: &Settings,
    mut f: impl FnMut(&mut Bencher),
) {
    if !criterion.matches(id) {
        return;
    }

    // Warm-up and calibration: grow the iteration count until one batch
    // exceeds ~1/5 of the warm-up budget, tracking time per iteration.
    let mut iters: u64 = 1;
    let mut per_iter;
    let warm_deadline = Instant::now() + settings.warm_up_time;
    loop {
        let mut b = Bencher { iters, elapsed: Duration::ZERO };
        f(&mut b);
        if b.elapsed.is_zero() {
            b.elapsed = Duration::from_nanos(1);
        }
        per_iter = b.elapsed / iters.min(u32::MAX as u64) as u32;
        if Instant::now() >= warm_deadline {
            break;
        }
        if b.elapsed * 5 < settings.warm_up_time {
            iters = iters.saturating_mul(2);
        }
    }

    // Choose per-sample iterations to fill measurement_time across samples.
    let budget = settings.measurement_time.as_nanos() as u64 / settings.sample_size as u64;
    let per = per_iter.as_nanos().max(1) as u64;
    let iters_per_sample = (budget / per).clamp(1, 1_000_000_000);

    let mut means: Vec<f64> = Vec::with_capacity(settings.sample_size);
    for _ in 0..settings.sample_size {
        let mut b = Bencher {
            iters: iters_per_sample,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        means.push(b.elapsed.as_nanos() as f64 / iters_per_sample as f64);
    }
    means.sort_by(|a, b| a.total_cmp(b));
    let median = means[means.len() / 2];
    let (min, max) = (means[0], means[means.len() - 1]);

    println!(
        "{:<50} time: [{} {} {}]  ({} samples x {} iters)",
        id,
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(max),
        settings.sample_size,
        iters_per_sample,
    );

    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if !path.is_empty() {
            let threads = std::env::var("SERD_THREADS").unwrap_or_else(|_| {
                std::thread::available_parallelism().map_or(1, |n| n.get()).to_string()
            });
            let line = format!(
                "{{\"id\":\"{}\",\"median_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\"threads\":\"{}\"}}\n",
                id.replace('"', "'"),
                median,
                min,
                max,
                threads,
            );
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                let _ = file.write_all(line.as_bytes());
            }
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares a benchmark group function, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_iter_counts_iterations() {
        let mut calls = 0u64;
        let mut b = Bencher { iters: 17, elapsed: Duration::ZERO };
        b.iter(|| calls += 1);
        assert_eq!(calls, 17);
        assert!(b.elapsed > Duration::ZERO || calls == 17);
    }

    #[test]
    fn iter_batched_runs_setup_per_iteration() {
        let mut setups = 0u64;
        let mut b = Bencher { iters: 5, elapsed: Duration::ZERO };
        b.iter_batched(
            || {
                setups += 1;
                vec![0u8; 16]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 5);
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("us"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(2_500_000_000.0).ends_with('s'));
    }
}
