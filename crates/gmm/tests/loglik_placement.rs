//! Pins where `Gmm::fit_auto` files its EM traces in the run report: every
//! `em.loglik.g<g>` series sits under the `gmm.fit_auto` span, none at the
//! report's root, whichever pool thread ran the candidate fit. This lives in
//! its own test binary because the obs mode is process-global.

use gmm::{Gmm, GmmConfig};
use parallel::{with_pool, ThreadPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// 300 points in two well-separated 2-d clusters.
fn two_clusters() -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(4);
    (0..300)
        .map(|i| {
            let c = if i % 2 == 0 { 0.2 } else { 0.8 };
            vec![
                c + rng.gen_range(-0.05..0.05),
                c + rng.gen_range(-0.05..0.05),
            ]
        })
        .collect()
}

#[test]
fn em_series_sit_under_fit_auto_at_four_threads() {
    let data = two_clusters();
    let config = GmmConfig::default();
    obs::set_mode(obs::Mode::Json);
    obs::reset();
    with_pool(Arc::new(ThreadPool::new(4)), || {
        for seed in 0..10 {
            Gmm::fit_auto(&data, &config, &mut StdRng::seed_from_u64(seed)).expect("fit_auto");
        }
    });
    let report = obs::report_json();
    obs::set_mode(obs::Mode::Off);

    // The root node's own metrics come before its first `children` key.
    let root_own = &report[..report.find("\"children\":").expect("no span recorded")];
    assert!(
        !root_own.contains("em.loglik"),
        "EM series at the report root:\n{report}"
    );
    let fit_auto = &report[report
        .find("{\"name\":\"gmm.fit_auto\"")
        .expect("no fit_auto span")..];
    for g in 1..=config.max_components {
        let key = format!("\"em.loglik.g{g}\"");
        assert!(
            fit_auto.contains(&key),
            "{key} not under gmm.fit_auto:\n{report}"
        );
    }
}
