//! Exp-4 privacy metrics: Hitting Rate and Distance-to-Closest-Record.
//!
//! Both compare every synthesized entity with every real one. Each entity
//! is profiled once, through one [`IncrementalProfiler`], and each
//! comparison reads the two profiles ([`Column::similarity_profiled`], which
//! scores like [`Column::similarity`]); the outer loop runs over the worker
//! pool, and its per-entity results are summed serially in entity order, so
//! both metrics keep their bits at any thread count.

use er_core::blocking::DEFAULT_BLOCK_Q;
use er_core::{Column, ColumnType, Entity, ErDataset, IncrementalProfiler, RecordProfile, Schema};
use similarity::TokenInterner;

/// The Exp-4 similarity rule over per-column scores `sim(i, column)`: all
/// categorical values equal, every other score above `threshold`.
fn similar_by(schema: &Schema, threshold: f64, sim: impl Fn(usize, &Column) -> f64) -> bool {
    schema.columns().iter().enumerate().all(|(i, col)| {
        let s = sim(i, col);
        match col.ctype {
            ColumnType::Categorical => s >= 1.0,
            _ => s > threshold,
        }
    })
}

/// The mean of the per-column scores `sim(i, column)`, in column order.
fn mean_by(schema: &Schema, sim: impl Fn(usize, &Column) -> f64) -> f64 {
    let l = schema.len().max(1);
    schema.columns().iter().enumerate().map(|(i, col)| sim(i, col)).sum::<f64>() / l as f64
}

/// Whether two entities are *similar* in the paper's Exp-4 sense: all
/// categorical values equal, and every numeric/date/text similarity above
/// `threshold` (paper sets 0.9).
pub fn entities_similar(schema: &Schema, a: &Entity, b: &Entity, threshold: f64) -> bool {
    similar_by(schema, threshold, |i, col| col.similarity(a.value(i), b.value(i)))
}

/// Mean per-column similarity of two entities (used by DCR: distance is one
/// minus this).
pub fn entity_similarity(schema: &Schema, a: &Entity, b: &Entity) -> f64 {
    mean_by(schema, |i, col| col.similarity(a.value(i), b.value(i)))
}

/// One entity of a dataset with its relation's schema and its profile.
struct Profiled<'d> {
    schema: &'d Schema,
    entity: &'d Entity,
    profile: RecordProfile,
}

impl Profiled<'_> {
    /// Column `i`'s score against `other` under `col`, through both profiles.
    fn sim(&self, other: &Profiled<'_>, i: usize, col: &Column, interner: &TokenInterner) -> f64 {
        col.similarity_profiled(
            self.entity.value(i),
            other.entity.value(i),
            self.profile.col(i),
            other.profile.col(i),
            interner,
        )
    }
}

/// Every entity of `er`, A's then B's, profiled through `profiler`.
fn profile_all<'d>(er: &'d ErDataset, profiler: &mut IncrementalProfiler) -> Vec<Profiled<'d>> {
    [er.a(), er.b()]
        .into_iter()
        .flat_map(|r| r.entities().iter().map(move |e| (r.schema(), e)))
        .map(|(schema, entity)| {
            let profile = profiler.profile_entity(entity);
            Profiled { schema, entity, profile }
        })
        .collect()
}

/// Both datasets' entities, profiled through one profiler so any real
/// entity can be compared with any synthesized one, and that profiler.
fn profile_both<'d>(
    real: &'d ErDataset,
    synthesized: &'d ErDataset,
) -> (Vec<Profiled<'d>>, Vec<Profiled<'d>>, IncrementalProfiler) {
    let mut profiler = IncrementalProfiler::new(real.a().schema(), DEFAULT_BLOCK_Q);
    let real = profile_all(real, &mut profiler);
    let syn = profile_all(synthesized, &mut profiler);
    (real, syn, profiler)
}

/// **Hitting Rate** (paper Exp-4): for each synthesized entity, the
/// proportion of real entities *similar* to it; averaged over all
/// synthesized entities. Returned as a percentage (the paper's Table III
/// unit).
pub fn hitting_rate(real: &ErDataset, synthesized: &ErDataset, threshold: f64) -> f64 {
    let (real, syn, profiler) = profile_both(real, synthesized);
    if real.is_empty() {
        return 0.0;
    }
    let interner = profiler.interner();
    let hits = parallel::par_map(&syn, |s| {
        real.iter()
            .filter(|r| similar_by(s.schema, threshold, |i, col| s.sim(r, i, col, interner)))
            .count()
    });
    let mut total = 0.0;
    for &h in &hits {
        total += h as f64 / real.len() as f64;
    }
    if syn.is_empty() {
        0.0
    } else {
        100.0 * total / syn.len() as f64
    }
}

/// **Distance to the Closest Record** (paper Exp-4): for each real entity,
/// `1 - max_syn similarity(real, syn)`; averaged over all real entities.
/// Higher means better privacy.
pub fn dcr(real: &ErDataset, synthesized: &ErDataset) -> f64 {
    let (real, syn, profiler) = profile_both(real, synthesized);
    if syn.is_empty() {
        return 1.0;
    }
    let interner = profiler.interner();
    let closest = parallel::par_map(&real, |r| {
        syn.iter()
            .map(|s| mean_by(r.schema, |i, col| r.sim(s, i, col, interner)))
            .fold(0.0f64, f64::max)
    });
    let mut total = 0.0;
    for &c in &closest {
        total += 1.0 - c;
    }
    if real.is_empty() {
        1.0
    } else {
        total / real.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{Relation, Value};

    fn dataset(names: &[(&str, &str, f64)]) -> ErDataset {
        let schema = Schema::new(vec![
            Column::text("name"),
            Column::categorical("city"),
            Column::numeric("year", 10.0),
        ]);
        let mut a = Relation::new("A", schema.clone());
        let mut b = Relation::new("B", schema);
        for (n, c, y) in names {
            a.push(vec![
                Value::Text((*n).to_string()),
                Value::Categorical((*c).to_string()),
                Value::Numeric(*y),
            ])
            .unwrap();
            b.push(vec![
                Value::Text((*n).to_string()),
                Value::Categorical((*c).to_string()),
                Value::Numeric(*y),
            ])
            .unwrap();
        }
        ErDataset::new(a, b, vec![(0, 0)]).unwrap()
    }

    #[test]
    fn identical_datasets_have_full_hit_and_zero_dcr() {
        let d = dataset(&[("golden dragon palace", "ny", 2000.0)]);
        assert!(hitting_rate(&d, &d, 0.9) > 49.0); // each syn hits 1 of 2 real
        assert!(dcr(&d, &d) < 1e-9);
    }

    #[test]
    fn disjoint_datasets_have_zero_hits_high_dcr() {
        let real = dataset(&[("golden dragon palace", "ny", 2000.0)]);
        let syn = dataset(&[("completely unrelated eatery", "sf", 1995.0)]);
        assert_eq!(hitting_rate(&real, &syn, 0.9), 0.0);
        assert!(dcr(&real, &syn) > 0.3);
    }

    #[test]
    fn categorical_mismatch_blocks_similarity() {
        let schema = Schema::new(vec![Column::text("name"), Column::categorical("city")]);
        let a = Entity::new(vec![
            Value::Text("golden dragon".into()),
            Value::Categorical("ny".into()),
        ]);
        let b = Entity::new(vec![
            Value::Text("golden dragon".into()),
            Value::Categorical("sf".into()),
        ]);
        assert!(!entities_similar(&schema, &a, &b, 0.9));
        let c = Entity::new(vec![
            Value::Text("golden dragon".into()),
            Value::Categorical("ny".into()),
        ]);
        assert!(entities_similar(&schema, &a, &c, 0.9));
    }

    /// Both metrics as they were computed before profiling: every pair
    /// through the scalar kernels, serially, summed in entity order.
    fn scalar_metrics(real: &ErDataset, syn: &ErDataset, threshold: f64) -> (f64, f64) {
        let all = |er: &ErDataset| -> Vec<(Schema, Entity)> {
            [er.a(), er.b()]
                .iter()
                .flat_map(|r| r.entities().iter().map(|e| (r.schema().clone(), e.clone())))
                .collect()
        };
        let (real, syn) = (all(real), all(syn));
        let mut total = 0.0;
        for (schema, s) in &syn {
            let hits =
                real.iter().filter(|(_, r)| entities_similar(schema, s, r, threshold)).count();
            total += hits as f64 / real.len() as f64;
        }
        let hit = 100.0 * total / syn.len() as f64;
        let mut total = 0.0;
        for (schema, r) in &real {
            let closest =
                syn.iter().map(|(_, s)| entity_similarity(schema, r, s)).fold(0.0f64, f64::max);
            total += 1.0 - closest;
        }
        (hit, total / real.len() as f64)
    }

    /// The profiled, pool-parallel metrics reproduce the scalar ones bit for
    /// bit on every simulated domain (q-gram, token, edit-distance, numeric,
    /// date and categorical columns, with nulls), at any thread count. The
    /// "synthesized" side holds the real B relation, whose entities hit
    /// themselves and sit near their matches, and an unrelated A relation.
    #[test]
    fn profiled_metrics_match_the_scalar_kernels_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::Arc;
        // The first 60 rows of a relation, to keep the scalar reference quick.
        let head = |r: &Relation| {
            let mut out = Relation::new(r.name(), r.schema().clone());
            for e in r.entities().iter().take(60) {
                out.push_entity(e.clone()).unwrap();
            }
            out
        };
        for kind in datagen::DatasetKind::all() {
            let real = datagen::generate(kind, 0.02, &mut StdRng::seed_from_u64(1)).er;
            let other = datagen::generate(kind, 0.02, &mut StdRng::seed_from_u64(2)).er;
            let real = ErDataset::new(head(real.a()), head(real.b()), Vec::new()).unwrap();
            let syn = ErDataset::new(real.b().clone(), head(other.a()), Vec::new()).unwrap();
            for threshold in [0.9, 0.5] {
                let (hit, d) = scalar_metrics(&real, &syn, threshold);
                for threads in [1, 2, 8] {
                    let pool = Arc::new(parallel::ThreadPool::new(threads));
                    let (got_hit, got_d) = parallel::with_pool(pool, || {
                        (hitting_rate(&real, &syn, threshold), dcr(&real, &syn))
                    });
                    let case = format!("{kind:?} threshold {threshold} threads {threads}");
                    assert_eq!(got_hit.to_bits(), hit.to_bits(), "hitting rate, {case}");
                    assert_eq!(got_d.to_bits(), d.to_bits(), "DCR, {case}");
                }
            }
        }
    }

    #[test]
    fn dcr_monotone_in_closeness() {
        let real = dataset(&[("golden dragon palace restaurant", "ny", 2000.0)]);
        let close = dataset(&[("golden dragon palace diner", "ny", 2001.0)]);
        let far = dataset(&[("xqz vvv", "sf", 1990.0)]);
        assert!(dcr(&real, &close) < dcr(&real, &far));
    }
}
