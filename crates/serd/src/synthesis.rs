//! Column-wise entity synthesis (paper Section IV-B1): given an existing
//! entity `e` and a sampled similarity vector `x`, produce `e'` such that
//! `f_i(e[C_i], e'[C_i]) = x[i]` for every column.

use er_core::{ColumnType, Entity, Schema, Value};
use persist::{Persist, Reader, Writer};
use rand::Rng;
use similarity::numeric_inverse;
use std::collections::HashMap;
use transformer::BucketedSynthesizer;

/// Which relation a synthesized entity is destined for. Categorical value
/// domains are kept per side: in real ER data the two tables often use
/// different surface forms (paper Fig. 1: "VLDB" vs "Very Large Data
/// Bases"), and pooling them would distort the cross-pair similarity
/// distribution of `E_syn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The A relation.
    A,
    /// The B relation.
    B,
}

/// Synthesizes attribute values per column type.
///
/// * **Numeric/Date**: invert the min–max similarity analytically and pick
///   one of the two candidates (paper's `2008 ± (1-0.8)·10` example).
/// * **Categorical**: scan the column's (real) value domain for the value
///   whose similarity to `e[C_i]` is closest to `x[i]`.
/// * **Text**: the per-column bucketed DP transformer.
pub struct ColumnSynthesizer {
    schema: Schema,
    /// Per-side value domains of categorical columns.
    domains_a: HashMap<usize, Vec<String>>,
    domains_b: HashMap<usize, Vec<String>>,
    /// Bucketed transformers for text columns.
    text_models: HashMap<usize, BucketedSynthesizer>,
    /// `(min, max)` observed per numeric/date column (values are clamped so
    /// synthesized entities stay in-domain).
    bounds: Vec<(f64, f64)>,
    /// Whether each numeric column held only integral values.
    integral: Vec<bool>,
}

impl ColumnSynthesizer {
    /// Assembles a synthesizer from the fitted pieces. `domains_a` /
    /// `domains_b` are the categorical value domains observed in the real
    /// A / B relations.
    pub fn new(
        schema: Schema,
        domains_a: HashMap<usize, Vec<String>>,
        domains_b: HashMap<usize, Vec<String>>,
        text_models: HashMap<usize, BucketedSynthesizer>,
        bounds: Vec<(f64, f64)>,
        integral: Vec<bool>,
    ) -> Self {
        ColumnSynthesizer {
            schema,
            domains_a,
            domains_b,
            text_models,
            bounds,
            integral,
        }
    }

    /// The schema this synthesizer produces entities for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The bucketed text model of a column, if any.
    pub fn text_model(&self, col: usize) -> Option<&BucketedSynthesizer> {
        self.text_models.get(&col)
    }

    /// Synthesizes `e'` from `e` and the sampled similarity vector `x`
    /// (paper step S2-3). `side` is the relation `e'` will be added to;
    /// categorical values are drawn from that side's real domain.
    ///
    /// Equivalent to `self.prepare_entity(e, x, side).synthesize(rng)`;
    /// callers that retry the same `(e, x, side)` — the S2 rejection loop —
    /// should hold a [`PreparedEntity`] so text columns reuse their encoder
    /// memory across attempts.
    pub fn synthesize_entity<R: Rng + ?Sized>(
        &self,
        e: &Entity,
        x: &[f64],
        side: Side,
        rng: &mut R,
    ) -> Entity {
        self.prepare_entity(e, x, side).synthesize(rng)
    }

    /// Hoists the per-`(e, x, side)` work out of the sampling loop: each
    /// categorical column's choice, which draws no randomness, and for text
    /// columns bucket-model selection, source encoding and encoder memory.
    pub fn prepare_entity<'a>(&'a self, e: &'a Entity, x: &'a [f64], side: Side) -> PreparedEntity<'a> {
        debug_assert_eq!(x.len(), self.schema.len());
        let mut text = HashMap::new();
        let mut categorical = HashMap::new();
        for (i, col) in self.schema.columns().iter().enumerate() {
            let target = x[i].clamp(0.0, 1.0);
            match col.ctype {
                ColumnType::Text => {
                    if let Some(model) = self.text_models.get(&i) {
                        let base = e.value(i).as_str().unwrap_or("");
                        text.insert(i, model.prepare(base, target));
                    }
                }
                ColumnType::Categorical => {
                    categorical.insert(i, self.synth_categorical(i, e.value(i), target, col, side));
                }
                ColumnType::Numeric | ColumnType::Date => {}
            }
        }
        PreparedEntity { syn: self, e, x, text, categorical }
    }

    fn synth_numeric<R: Rng + ?Sized>(
        &self,
        col: usize,
        v: &Value,
        target: f64,
        range: f64,
        rng: &mut R,
    ) -> Value {
        let Some(base) = v.as_f64() else {
            // Missing source value: draw uniformly from the column bounds.
            let (lo, hi) = self.bounds[col];
            return Value::Numeric(self.round_if_integral(col, rng.gen_range(lo..=hi.max(lo))));
        };
        let (lo_cand, hi_cand) = numeric_inverse(base, target, range);
        let (lo, hi) = self.bounds[col];
        // Prefer the in-bounds candidate; sample when both qualify.
        let candidates = [lo_cand, hi_cand];
        let in_bounds: Vec<f64> = candidates
            .iter()
            .copied()
            .filter(|&c| c >= lo && c <= hi)
            .collect();
        let chosen = match in_bounds.len() {
            2 => in_bounds[rng.gen_range(0..2usize)],
            1 => in_bounds[0],
            _ => candidates[rng.gen_range(0..2usize)].clamp(lo, hi),
        };
        Value::Numeric(self.round_if_integral(col, chosen))
    }

    fn synth_date<R: Rng + ?Sized>(
        &self,
        col: usize,
        v: &Value,
        target: f64,
        range: f64,
        rng: &mut R,
    ) -> Value {
        let base = match v.as_f64() {
            Some(b) => b,
            None => {
                let (lo, hi) = self.bounds[col];
                return Value::Date(rng.gen_range(lo as i64..=(hi as i64).max(lo as i64)));
            }
        };
        let (lo_cand, hi_cand) = numeric_inverse(base, target, range);
        let chosen = if rng.gen_bool(0.5) { lo_cand } else { hi_cand };
        let (lo, hi) = self.bounds[col];
        Value::Date(chosen.clamp(lo, hi).round() as i64)
    }

    fn synth_categorical(
        &self,
        col: usize,
        v: &Value,
        target: f64,
        column: &er_core::Column,
        side: Side,
    ) -> Value {
        let domains = match side {
            Side::A => &self.domains_a,
            Side::B => &self.domains_b,
        };
        let domain = match domains.get(&col) {
            Some(d) if !d.is_empty() => d,
            _ => return v.clone(),
        };
        let base = Value::Categorical(v.as_str().unwrap_or("").to_string());
        // Each value is scored once. A later value wins only when the best
        // distance so far is strictly greater, which is `Iterator::min_by`'s
        // rule over `partial_cmp`: the first minimum wins, and a NaN
        // distance, which compares as equal, never displaces or is chosen
        // over an earlier value.
        let mut best: Option<(&String, f64)> = None;
        for value in domain {
            let d = (column.similarity(&base, &Value::Categorical(value.clone())) - target).abs();
            if best.is_none_or(|(_, best_d)| best_d > d) {
                best = Some((value, d));
            }
        }
        Value::Categorical(best.map(|(value, _)| value.clone()).unwrap_or_default())
    }

    fn round_if_integral(&self, col: usize, v: f64) -> f64 {
        if self.integral.get(col).copied().unwrap_or(false) {
            v.round()
        } else {
            v
        }
    }
}

/// An entity-synthesis context for one `(e, x, side)` triple with all
/// randomness-free preparation done up front. The S2 rejection loop calls
/// [`PreparedEntity::synthesize`] up to `max_retries + 1` times; only the
/// sampling itself re-runs per attempt.
pub struct PreparedEntity<'a> {
    syn: &'a ColumnSynthesizer,
    e: &'a Entity,
    x: &'a [f64],
    /// Prepared text synthesis per text column that has a bucket model.
    text: HashMap<usize, transformer::PreparedSynthesis<'a>>,
    /// The chosen value of each categorical column.
    categorical: HashMap<usize, Value>,
}

impl PreparedEntity<'_> {
    /// Draws one candidate entity. Consumes `rng` exactly like
    /// [`ColumnSynthesizer::synthesize_entity`] (same column order).
    pub fn synthesize<R: Rng + ?Sized>(&self, rng: &mut R) -> Entity {
        let syn = self.syn;
        let values = syn
            .schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, col)| {
                let target = self.x[i].clamp(0.0, 1.0);
                match col.ctype {
                    ColumnType::Numeric => {
                        syn.synth_numeric(i, self.e.value(i), target, col.range, rng)
                    }
                    ColumnType::Date => syn.synth_date(i, self.e.value(i), target, col.range, rng),
                    ColumnType::Categorical => self.categorical[&i].clone(),
                    ColumnType::Text => match self.text.get(&i) {
                        Some(prep) => Value::Text(prep.synthesize(rng)),
                        None => Value::Text(self.e.value(i).as_str().unwrap_or("").to_string()),
                    },
                }
            })
            .collect();
        Entity::new(values)
    }
}

/// Upper bound on persisted categorical-domain sizes — far above any real
/// dataset, low enough that corrupt counts cannot trigger huge allocations.
const MAX_PERSISTED_DOMAIN: usize = 1 << 20;

/// Writes one side's categorical domains sorted by column index so the
/// artifact bytes do not depend on `HashMap` iteration order.
fn write_domains(w: &mut Writer, key: &str, domains: &HashMap<usize, Vec<String>>) {
    let mut cols: Vec<usize> = domains.keys().copied().collect();
    cols.sort_unstable();
    w.kv(key, cols.len());
    for col in cols {
        let values = &domains[&col];
        w.kv("col", col);
        w.kv("values", values.len());
        for v in values {
            w.kv_str("d", v);
        }
    }
}

/// Reads one side's categorical domains, validating column indices against
/// the schema (strictly increasing, in range, categorical columns only).
fn read_domains(
    r: &mut Reader<'_>,
    key: &str,
    schema: &Schema,
) -> persist::Result<HashMap<usize, Vec<String>>> {
    let k = r.kv_usize(key)?;
    if k > schema.len() {
        return Err(r.invalid(format!("{key}: {k} domains for {} columns", schema.len())));
    }
    let mut out = HashMap::new();
    let mut prev: Option<usize> = None;
    for _ in 0..k {
        let col = r.kv_usize("col")?;
        if col >= schema.len() {
            return Err(r.invalid(format!("{key}: column {col} out of range")));
        }
        if prev.is_some_and(|p| col <= p) {
            return Err(r.invalid(format!("{key}: column indices not strictly increasing")));
        }
        prev = Some(col);
        if schema.columns()[col].ctype != ColumnType::Categorical {
            return Err(r.invalid(format!("{key}: column {col} is not categorical")));
        }
        let m = r.kv_usize("values")?;
        if m > MAX_PERSISTED_DOMAIN {
            return Err(r.invalid(format!("{key}: implausible domain size {m}")));
        }
        let mut values = Vec::with_capacity(m);
        for _ in 0..m {
            values.push(r.kv_str("d")?);
        }
        out.insert(col, values);
    }
    Ok(out)
}

impl Persist for ColumnSynthesizer {
    const MAGIC: &'static str = "serd-columns-v1";

    fn write_body(&self, w: &mut Writer) {
        w.child(&self.schema);
        w.kv("bounds", self.bounds.len());
        for &(lo, hi) in &self.bounds {
            let mut line = String::from("b ");
            line.push_str(&persist::f64_to_hex(lo));
            line.push(' ');
            line.push_str(&persist::f64_to_hex(hi));
            w.line(&line);
        }
        let flags: Vec<String> = self.integral.iter().map(|b| b.to_string()).collect();
        w.kv("integral", flags.join(" "));
        write_domains(w, "domains_a", &self.domains_a);
        write_domains(w, "domains_b", &self.domains_b);
        let mut text_cols: Vec<usize> = self.text_models.keys().copied().collect();
        text_cols.sort_unstable();
        w.kv("text_models", text_cols.len());
        for col in text_cols {
            w.kv("col", col);
            w.child(&self.text_models[&col]);
        }
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let schema: Schema = r.child()?;
        let n = r.kv_usize("bounds")?;
        // `synthesize_entity` indexes bounds by column, so the lengths must
        // agree exactly — a shorter vector would panic at synthesis time.
        if n != schema.len() {
            return Err(r.invalid(format!("{n} bounds for {} columns", schema.len())));
        }
        let mut bounds = Vec::with_capacity(n);
        for _ in 0..n {
            let pair = r.kv_finite_f64s("b", 2)?;
            bounds.push((pair[0], pair[1]));
        }
        let raw = r.kv_str("integral")?;
        let mut integral = Vec::with_capacity(n);
        for tok in raw.split_whitespace() {
            match tok {
                "true" => integral.push(true),
                "false" => integral.push(false),
                other => {
                    return Err(r.invalid(format!("integral: bad flag {other:?}")));
                }
            }
        }
        if integral.len() != n {
            return Err(r.invalid(format!("{} integral flags for {n} columns", integral.len())));
        }
        let domains_a = read_domains(r, "domains_a", &schema)?;
        let domains_b = read_domains(r, "domains_b", &schema)?;
        let k = r.kv_usize("text_models")?;
        if k > schema.len() {
            return Err(r.invalid(format!("{k} text models for {} columns", schema.len())));
        }
        let mut text_models = HashMap::new();
        let mut prev: Option<usize> = None;
        for _ in 0..k {
            let col = r.kv_usize("col")?;
            if col >= schema.len() {
                return Err(r.invalid(format!("text_models: column {col} out of range")));
            }
            if prev.is_some_and(|p| col <= p) {
                return Err(r.invalid("text_models: column indices not strictly increasing"));
            }
            prev = Some(col);
            if schema.columns()[col].ctype != ColumnType::Text {
                return Err(r.invalid(format!("text_models: column {col} is not text")));
            }
            text_models.insert(col, r.child()?);
        }
        Ok(ColumnSynthesizer { schema, domains_a, domains_b, text_models, bounds, integral })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::Column;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use similarity::qgram_jaccard;
    use transformer::{BucketedSynthesizer, BucketedSynthesizerConfig};

    fn synthesizer(with_text_model: bool) -> ColumnSynthesizer {
        let schema = Schema::new(vec![
            Column::text("title"),
            Column::categorical("venue"),
            Column::numeric("year", 10.0),
            Column::date("released", 100.0),
        ]);
        let mut domains = HashMap::new();
        domains.insert(
            1,
            vec![
                "SIGMOD Conference".to_string(),
                "International Conference on Management of Data".to_string(),
                "VLDB".to_string(),
            ],
        );
        let mut text_models = HashMap::new();
        if with_text_model {
            let mut rng = StdRng::seed_from_u64(0);
            let corpus: Vec<String> = [
                "adaptive query processing",
                "temporal data management",
                "frequent pattern mining",
                "stream processing systems",
                "parallel join algorithms",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            text_models.insert(
                0,
                BucketedSynthesizer::train(&corpus, BucketedSynthesizerConfig::test_tiny(), &mut rng),
            );
        }
        let mut domains_b = HashMap::new();
        domains_b.insert(
            1,
            vec![
                "International Conference on Management of Data".to_string(),
                "Very Large Data Bases".to_string(),
            ],
        );
        ColumnSynthesizer::new(
            schema,
            domains,
            domains_b,
            text_models,
            vec![(0.0, 0.0), (0.0, 0.0), (1995.0, 2005.0), (0.0, 1000.0)],
            vec![false, false, true, false],
        )
    }

    fn entity() -> Entity {
        Entity::new(vec![
            Value::Text("adaptive query processing in temporal systems".into()),
            Value::Categorical("SIGMOD Conference".into()),
            Value::Numeric(2000.0),
            Value::Date(500),
        ])
    }

    #[test]
    fn numeric_hits_target_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = synthesizer(false);
        let e = entity();
        let out = s.synthesize_entity(&e, &[1.0, 1.0, 0.8, 1.0], Side::A, &mut rng);
        let y = out.value(2).as_f64().unwrap();
        // 2000 ± 2, in bounds, integral.
        assert!(y == 1998.0 || y == 2002.0, "year {y}");
    }

    #[test]
    fn numeric_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = synthesizer(false);
        let e = Entity::new(vec![
            Value::Text("t".into()),
            Value::Categorical("VLDB".into()),
            Value::Numeric(2005.0), // at the max bound
            Value::Date(0),
        ]);
        // target 0.5 -> candidates 2000 or 2010; 2010 out of bounds.
        let out = s.synthesize_entity(&e, &[1.0, 1.0, 0.5, 1.0], Side::A, &mut rng);
        assert_eq!(out.value(2).as_f64().unwrap(), 2000.0);
    }

    #[test]
    fn date_synthesis_rounds_and_clamps() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = synthesizer(false);
        let e = entity();
        let out = s.synthesize_entity(&e, &[1.0, 1.0, 1.0, 0.9], Side::A, &mut rng);
        let d = match out.value(3) {
            Value::Date(d) => *d,
            other => panic!("expected date, got {other:?}"),
        };
        assert!(d == 490 || d == 510, "date {d}");
    }

    #[test]
    fn categorical_picks_exact_match_for_sim_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = synthesizer(false);
        let e = entity();
        let out = s.synthesize_entity(&e, &[1.0, 1.0, 1.0, 1.0], Side::A, &mut rng);
        assert_eq!(out.value(1).as_str(), Some("SIGMOD Conference"));
    }

    #[test]
    fn categorical_picks_closest_for_low_sim() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = synthesizer(false);
        let e = entity();
        let out = s.synthesize_entity(&e, &[1.0, 0.0, 1.0, 1.0], Side::A, &mut rng);
        // VLDB shares no 3-grams with "SIGMOD Conference" -> sim 0 exactly.
        assert_eq!(out.value(1).as_str(), Some("VLDB"));
    }

    /// The categorical choice as it was written before it moved into
    /// `prepare_entity`: `min_by`, rescoring both values per comparison.
    fn categorical_reference(domain: &[String], column: &Column, v: &Value, target: f64) -> Value {
        let base = Value::Categorical(v.as_str().unwrap_or("").to_string());
        let best = domain
            .iter()
            .min_by(|a, b| {
                let da = (column.similarity(&base, &Value::Categorical((*a).clone())) - target)
                    .abs();
                let db = (column.similarity(&base, &Value::Categorical((*b).clone())) - target)
                    .abs();
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .cloned()
            .unwrap_or_default();
        Value::Categorical(best)
    }

    #[test]
    fn categorical_choice_matches_the_min_by_reference() {
        let s = synthesizer(false);
        let column = &s.schema().columns()[1];
        let sources = [
            Value::Categorical("SIGMOD Conference".into()),
            Value::Categorical("Conference on Data".into()),
            Value::Categorical("VLDB".into()),
            Value::Categorical("zzz".into()),
            Value::Null,
        ];
        let mut rng = StdRng::seed_from_u64(9);
        for (side, domain) in [(Side::A, &s.domains_a[&1]), (Side::B, &s.domains_b[&1])] {
            for v in &sources {
                let e = Entity::new(vec![
                    Value::Text("t".into()),
                    v.clone(),
                    Value::Numeric(2000.0),
                    Value::Date(500),
                ]);
                // NaN scores every value NaN: no comparison orders them.
                for target in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, f64::NAN] {
                    let got = s.prepare_entity(&e, &[1.0, target, 1.0, 1.0], side).synthesize(&mut rng);
                    let want = categorical_reference(domain, column, v, target);
                    assert_eq!(got.value(1), &want, "{side:?} {v:?} target {target}");
                }
            }
        }
        // "zzz" shares no 3-gram with any value: every distance ties, and the
        // first value of the domain wins.
        let zzz = Value::Categorical("zzz".into());
        let first = Value::Categorical(s.domains_a[&1][0].clone());
        assert_eq!(categorical_reference(&s.domains_a[&1], column, &zzz, 0.3), first);
    }

    #[test]
    fn text_without_model_copies_source() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = synthesizer(false);
        let e = entity();
        let out = s.synthesize_entity(&e, &[0.4, 1.0, 1.0, 1.0], Side::A, &mut rng);
        assert_eq!(out.value(0).as_str(), e.value(0).as_str());
    }

    #[test]
    fn text_with_model_approaches_target() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = synthesizer(true);
        let e = entity();
        for target in [0.15, 0.8] {
            let out = s.synthesize_entity(&e, &[target, 1.0, 1.0, 1.0], Side::A, &mut rng);
            let achieved = qgram_jaccard(
                e.value(0).as_str().unwrap(),
                out.value(0).as_str().unwrap(),
                3,
            );
            assert!(
                (achieved - target).abs() < 0.3,
                "target {target} achieved {achieved}"
            );
        }
    }

    #[test]
    fn persist_roundtrip_is_bit_identical() {
        let s = synthesizer(true);
        let text = s.to_persist_string();
        let back = ColumnSynthesizer::from_persist_str(&text).unwrap();
        // Same artifact bytes on re-serialization (sorted map iteration).
        assert_eq!(back.to_persist_string(), text);
        // Same synthesis behavior under the same rng stream.
        let e = entity();
        for target in [0.1, 0.6, 1.0] {
            let x = [target, target, target, target];
            let mut r1 = StdRng::seed_from_u64(42);
            let mut r2 = StdRng::seed_from_u64(42);
            let v1 = s.synthesize_entity(&e, &x, Side::B, &mut r1);
            let v2 = back.synthesize_entity(&e, &x, Side::B, &mut r2);
            for i in 0..4 {
                assert_eq!(v1.value(i), v2.value(i), "column {i} target {target}");
            }
        }
    }

    #[test]
    fn persist_rejects_bounds_count_mismatch() {
        let s = synthesizer(false);
        let text = s.to_persist_string().replacen("bounds 4", "bounds 3", 1);
        assert!(ColumnSynthesizer::from_persist_str(&text).is_err());
    }

    #[test]
    fn persist_rejects_domain_on_noncategorical_column() {
        let s = synthesizer(false);
        // Point the (only) domain at column 0, which is a text column.
        let text = s.to_persist_string().replacen("col 1", "col 0", 1);
        assert!(ColumnSynthesizer::from_persist_str(&text).is_err());
    }

    #[test]
    fn null_numeric_source_draws_from_bounds() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = synthesizer(false);
        let e = Entity::new(vec![
            Value::Text("t".into()),
            Value::Categorical("VLDB".into()),
            Value::Null,
            Value::Date(10),
        ]);
        let out = s.synthesize_entity(&e, &[1.0, 1.0, 0.7, 1.0], Side::A, &mut rng);
        let y = out.value(2).as_f64().unwrap();
        assert!((1995.0..=2005.0).contains(&y));
    }
}
