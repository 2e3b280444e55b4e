//! Benchmarks for the data-parallel runtime: matmul across operand sizes and
//! GMM EM fitting, each at a sweep of thread counts.
//!
//! Run serially vs parallel with `SERD_THREADS=1 cargo bench ...` vs the
//! default.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::gmm::{Gaussian, Gmm, GmmConfig};
use serd_repro::linalg::Matrix;
use serd_repro::parallel::{with_pool, ThreadPool};
use std::sync::Arc;
use std::time::Duration;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rand::Rng::gen::<f64>(&mut rng)).collect(),
    )
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel/matmul");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(1));
    g.warm_up_time(Duration::from_millis(200));
    for n in [32usize, 128, 256] {
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        for threads in THREAD_SWEEP {
            let pool = Arc::new(ThreadPool::new(threads));
            g.bench_function(&format!("{n}x{n}/t{threads}"), |bch| {
                bch.iter(|| {
                    with_pool(Arc::clone(&pool), || {
                        black_box(&a).matmul(black_box(&b)).unwrap()
                    })
                })
            });
        }
    }
    g.finish();
}

fn bench_em(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel/em");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(200));
    let mut rng = StdRng::seed_from_u64(3);
    let g1 = Gaussian::isotropic(vec![0.2, 0.1, 0.25, 0.15], 0.004).unwrap();
    let g2 = Gaussian::isotropic(vec![0.8, 0.9, 0.75, 0.85], 0.004).unwrap();
    let data: Vec<Vec<f64>> = (0..3000)
        .map(|i| if i % 3 == 0 { g2.sample(&mut rng) } else { g1.sample(&mut rng) })
        .collect();
    for threads in THREAD_SWEEP {
        let pool = Arc::new(ThreadPool::new(threads));
        g.bench_function(&format!("fit/g2/3000x4d/t{threads}"), |bch| {
            bch.iter(|| {
                with_pool(Arc::clone(&pool), || {
                    let mut r = StdRng::seed_from_u64(11);
                    Gmm::fit(black_box(&data), 2, &GmmConfig::default(), &mut r).unwrap()
                })
            })
        });
        g.bench_function(&format!("fit_auto/3000x4d/t{threads}"), |bch| {
            bch.iter(|| {
                with_pool(Arc::clone(&pool), || {
                    let mut r = StdRng::seed_from_u64(12);
                    Gmm::fit_auto(black_box(&data), &GmmConfig::default(), &mut r).unwrap()
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_matmul, bench_em);
criterion_main!(benches);
