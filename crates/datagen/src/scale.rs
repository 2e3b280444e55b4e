//! Streaming large-scale domain generation (DESIGN.md §13).
//!
//! The resident simulators in [`crate::domains`] materialize both relations
//! before export, which is fine at the paper's Table II sizes but not at the
//! ROADMAP's 10⁵–10⁶-entity target. This module emits the same schemas from
//! the same wordlists **row by row**: every row is derived from a private
//! per-row RNG seeded by `mix(seed, stream, index)`, so a matched B row can
//! re-derive its A source in O(1) without the generator ever holding either
//! relation. Peak memory is one row regardless of `n`.
//!
//! Differences from the resident path, by design: matched B rows are the
//! first `matches` rows of B (position carries no signal for blocking or
//! profiling), and non-matching B rows are fresh draws rather than the
//! resident simulator's hard negatives — the scale path exists to exercise
//! ingest/blocking/profile throughput, not matcher training.

use crate::domains::{
    author_list, finalize, phrase, relation_names, schema_of, split_pool, titlecase,
};
use crate::perturb::{abbreviate_tokens, misspell, perturb_n, reorder_tokens, Perturbation};
use crate::wordlists as w;
use crate::{DatasetKind, SimulatedDataset};
use er_core::csv::{CsvReader, CsvWriter};
use er_core::{ErError, Relation};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// Target sizes for one streaming generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleSpec {
    /// Which benchmark's schema and wordlists to use.
    pub kind: DatasetKind,
    /// Rows of relation A.
    pub size_a: usize,
    /// Rows of relation B.
    pub size_b: usize,
    /// Planted matching pairs (first `matches` rows of B).
    pub matches: usize,
}

impl ScaleSpec {
    /// Sizes for a run totalling `entities` rows across both relations,
    /// keeping the paper's Table II |A|:|B| and match ratios.
    pub fn for_entities(kind: DatasetKind, entities: usize) -> ScaleSpec {
        let stats = kind.paper_stats();
        let total = (stats.size_a + stats.size_b) as f64;
        let size_a = (((entities as f64) * stats.size_a as f64 / total).round() as usize)
            .clamp(2, entities.saturating_sub(2).max(2));
        let size_b = entities.saturating_sub(size_a).max(2);
        let matches = (((entities as f64) * stats.matches as f64 / total).round() as usize)
            .clamp(2, size_a.min(size_b));
        ScaleSpec {
            kind,
            size_a,
            size_b,
            matches,
        }
    }

    /// The A-side row index of planted match `j` (for `j < matches`):
    /// strictly increasing, hence distinct, because `size_a >= matches`.
    fn a_source(&self, j: usize) -> usize {
        j * self.size_a / self.matches
    }
}

/// One emitted row of the stream. Borrowed field slices are valid only for
/// the duration of the sink call — copy out what must outlive it.
#[derive(Debug)]
pub enum StreamRow<'a> {
    /// A row of relation A, already rendered to CSV field strings.
    A(&'a [String]),
    /// A row of relation B.
    B(&'a [String]),
    /// A ground-truth match `(a_index, b_index)`.
    Match(usize, usize),
}

/// splitmix64-style mixer deriving one independent per-row seed from the run
/// seed, a stream discriminator, and the row index.
fn mix(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const STREAM_A: u64 = 0;
const STREAM_B_DIRT: u64 = 1;
const STREAM_B_FRESH: u64 = 2;
const STREAM_BACKGROUND: u64 = 3;

fn row_rng(seed: u64, stream: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream, i as u64))
}

/// Streams a full `(A, B, M)` generation run into `sink` in A, B, M order.
/// Memory is O(1): each row is derived and dropped before the next.
pub fn stream<F>(spec: &ScaleSpec, seed: u64, mut sink: F) -> io::Result<()>
where
    F: FnMut(StreamRow<'_>) -> io::Result<()>,
{
    assert!(
        spec.matches <= spec.size_a && spec.matches <= spec.size_b,
        "matches must not exceed either relation"
    );
    let gen = RowGen::active(spec.kind);
    for i in 0..spec.size_a {
        let row = gen.a_row(&mut row_rng(seed, STREAM_A, i));
        sink(StreamRow::A(&row))?;
    }
    for j in 0..spec.size_b {
        let row = if j < spec.matches {
            // Re-derive the A source row from its own seed, then dirty it.
            let src = gen.a_row(&mut row_rng(seed, STREAM_A, spec.a_source(j)));
            gen.dirty(&src, &mut row_rng(seed, STREAM_B_DIRT, j))
        } else {
            gen.a_row(&mut row_rng(seed, STREAM_B_FRESH, j))
        };
        sink(StreamRow::B(&row))?;
    }
    for j in 0..spec.matches {
        sink(StreamRow::Match(spec.a_source(j), j))?;
    }
    Ok(())
}

/// Small in-memory background corpora (disjoint wordlist halves), aligned to
/// the schema's column positions like [`crate::generate`]'s output.
pub fn background_corpora(kind: DatasetKind, seed: u64) -> Vec<Vec<String>> {
    let gen = RowGen::background_half(kind);
    let mut rng = row_rng(seed, STREAM_BACKGROUND, 0);
    gen.background(&mut rng)
}

/// Row counts written by [`export_dir`], for dropped-row accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExportStats {
    /// Data rows written to `A.csv` (excluding the header).
    pub rows_a: usize,
    /// Data rows written to `B.csv` (excluding the header).
    pub rows_b: usize,
    /// Pairs written to `matches.csv` (excluding the header).
    pub matches: usize,
}

/// Streams one generation run to `dir` in the layout `generate` writes
/// (`A.csv`, `B.csv`, `matches.csv`, `background_col{i}.txt`) without ever
/// materializing a relation or a full-file string.
pub fn export_dir(spec: &ScaleSpec, seed: u64, dir: &Path) -> io::Result<ExportStats> {
    std::fs::create_dir_all(dir)?;
    let schema = schema_of(spec.kind);
    let file = |name: &str| -> io::Result<CsvWriter<BufWriter<std::fs::File>>> {
        Ok(CsvWriter::new(BufWriter::new(std::fs::File::create(
            dir.join(name),
        )?)))
    };
    let mut a = file("A.csv")?;
    let mut b = file("B.csv")?;
    let mut m = file("matches.csv")?;
    let header: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
    a.write_record(&header)?;
    b.write_record(&header)?;
    m.write_record(&["a_index", "b_index"])?;

    let mut stats = ExportStats {
        rows_a: 0,
        rows_b: 0,
        matches: 0,
    };
    stream(spec, seed, |row| {
        match row {
            StreamRow::A(fields) => {
                a.write_record(fields)?;
                stats.rows_a += 1;
            }
            StreamRow::B(fields) => {
                b.write_record(fields)?;
                stats.rows_b += 1;
            }
            StreamRow::Match(i, j) => {
                m.write_record(&[i.to_string(), j.to_string()])?;
                stats.matches += 1;
            }
        }
        Ok(())
    })?;
    a.into_inner()?.flush()?;
    b.into_inner()?.flush()?;
    m.into_inner()?.flush()?;

    for (col, corpus) in background_corpora(spec.kind, seed).iter().enumerate() {
        if corpus.is_empty() {
            continue;
        }
        let mut f = BufWriter::new(std::fs::File::create(
            dir.join(format!("background_col{col}.txt")),
        )?);
        for (k, line) in corpus.iter().enumerate() {
            if k > 0 {
                f.write_all(b"\n")?;
            }
            f.write_all(line.as_bytes())?;
        }
        f.flush()?;
    }
    Ok(stats)
}

fn csv_err(ctx: &str, e: ErError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{ctx}: {e}"))
}

/// Ingests a directory in [`export_dir`]'s layout (which is also the CLI
/// `generate` layout) back into a [`SimulatedDataset`], streaming both CSVs
/// record-by-record — the read side of the 10⁶-entity path. A.csv and B.csv
/// are independent files, so they are read concurrently over the worker
/// pool; each is still parsed in file order, so the relations do not depend
/// on the thread count. Runs under an `ingest` span that counts the rows and
/// matches read.
pub fn ingest_dir(kind: DatasetKind, dir: &Path) -> io::Result<SimulatedDataset> {
    let _span = obs::span("ingest");
    let (name_a, name_b) = relation_names(kind);
    let read_rel = |&(file, name): &(&str, &str)| -> io::Result<Relation> {
        let src = io::BufReader::new(std::fs::File::open(dir.join(file))?);
        er_core::csv::read_relation_csv(name, schema_of(kind), src)
            .map_err(|e| csv_err(file, e))
    };
    let mut rels = parallel::par_map(&[("A.csv", name_a), ("B.csv", name_b)], read_rel).into_iter();
    let a = rels.next().expect("one result per file")?;
    let b = rels.next().expect("one result per file")?;

    let src = io::BufReader::new(std::fs::File::open(dir.join("matches.csv"))?);
    let mut reader = CsvReader::new(src);
    let mut matches = Vec::new();
    let mut first = true;
    while let Some(rec) = reader.next_record().map_err(|e| csv_err("matches.csv", e))? {
        if std::mem::take(&mut first) {
            continue; // header
        }
        let parse = |f: &str| {
            f.trim().parse::<usize>().map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("matches.csv: {f:?}: {e}"))
            })
        };
        match rec.as_slice() {
            [i, j] => matches.push((parse(i)?, parse(j)?)),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("matches.csv: expected 2 fields, got {}", other.len()),
                ))
            }
        }
    }

    let mut background = vec![Vec::new(); schema_of(kind).len()];
    for (col, slot) in background.iter_mut().enumerate() {
        let path = dir.join(format!("background_col{col}.txt"));
        if !path.exists() {
            continue;
        }
        for line in io::BufReader::new(std::fs::File::open(&path)?).lines() {
            let line = line?;
            if !line.is_empty() {
                slot.push(line);
            }
        }
    }

    if let Some(&(i, j)) = matches.iter().find(|&&(i, j)| i >= a.len() || j >= b.len()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "matches.csv: pair ({i},{j}) out of bounds for |A|={} |B|={}",
                a.len(),
                b.len()
            ),
        ));
    }
    obs::counter("ingest.rows_a", a.len() as u64);
    obs::counter("ingest.rows_b", b.len() as u64);
    obs::counter("ingest.matches", matches.len() as u64);
    // finalize re-syncs numeric/date ranges from the ingested data, exactly
    // like the resident simulators.
    Ok(finalize(kind, a, b, matches, background))
}

// ----------------------------------------------------------- row generation

/// Per-kind word pools (one disjoint half, per DESIGN.md §3.1) plus the row
/// derivations. `p0..p2` hold the kind's pools in a fixed order documented
/// in [`RowGen::with_half`].
struct RowGen {
    kind: DatasetKind,
    p0: Vec<&'static str>,
    p1: Vec<&'static str>,
    p2: Vec<&'static str>,
}

impl RowGen {
    fn active(kind: DatasetKind) -> RowGen {
        RowGen::with_half(kind, false)
    }

    fn background_half(kind: DatasetKind) -> RowGen {
        RowGen::with_half(kind, true)
    }

    /// Pool order: DblpAcm = (topics, firsts, lasts); Restaurant = (adj,
    /// noun, street); WalmartAmazon = (specs, nouns, –); ItunesAmazon =
    /// (songs, artists, –).
    fn with_half(kind: DatasetKind, background: bool) -> RowGen {
        let half = |pool: &[&'static str]| {
            let (active, bg) = split_pool(pool);
            if background {
                bg
            } else {
                active
            }
        };
        let (p0, p1, p2) = match kind {
            DatasetKind::DblpAcm => (
                half(w::RESEARCH_TOPICS),
                half(w::FIRST_NAMES),
                half(w::LAST_NAMES),
            ),
            DatasetKind::Restaurant => (
                half(w::RESTAURANT_ADJ),
                half(w::RESTAURANT_NOUN),
                half(w::STREET_NAMES),
            ),
            DatasetKind::WalmartAmazon => {
                (half(w::PRODUCT_SPECS), half(w::PRODUCT_NOUNS), Vec::new())
            }
            DatasetKind::ItunesAmazon => {
                (half(w::SONG_WORDS), half(w::ARTIST_WORDS), Vec::new())
            }
        };
        RowGen { kind, p0, p1, p2 }
    }

    /// One clean row, as CSV field strings in schema order.
    fn a_row(&self, rng: &mut StdRng) -> Vec<String> {
        match self.kind {
            DatasetKind::DblpAcm => vec![
                phrase(&self.p0, 4..=7, rng),
                author_list(&self.p1, &self.p2, rng),
                w::VENUES_ACTIVE.choose(rng).unwrap().to_string(),
                rng.gen_range(1995i32..=2005).to_string(),
            ],
            DatasetKind::Restaurant => vec![
                format!(
                    "{} {} {}",
                    self.p0.choose(rng).unwrap(),
                    self.p1.choose(rng).unwrap(),
                    w::RESTAURANT_SUFFIX.choose(rng).unwrap()
                ),
                format!("{} {}", rng.gen_range(1..=9999), self.p2.choose(rng).unwrap()),
                w::CITIES.choose(rng).unwrap().to_string(),
                w::FLAVORS.choose(rng).unwrap().to_string(),
            ],
            DatasetKind::WalmartAmazon => vec![
                format!(
                    "{}{}-{}",
                    (b'A' + rng.gen_range(0u8..26)) as char,
                    (b'A' + rng.gen_range(0u8..26)) as char,
                    rng.gen_range(100..9999)
                ),
                format!(
                    "{} {} {} {}",
                    w::PRODUCT_BRANDS.choose(rng).unwrap(),
                    self.p0.choose(rng).unwrap(),
                    self.p1.choose(rng).unwrap(),
                    self.p0.choose(rng).unwrap()
                ),
                format!(
                    "{} with {} and {}",
                    self.p1.choose(rng).unwrap(),
                    self.p0.choose(rng).unwrap(),
                    self.p0.choose(rng).unwrap()
                ),
                w::PRODUCT_BRANDS.choose(rng).unwrap().to_string(),
                format!("{:.2}", (rng.gen_range(500..200000) as f64) / 100.0),
            ],
            DatasetKind::ItunesAmazon => vec![
                titlecase(&phrase(&self.p0, 2..=5, rng)),
                titlecase(&phrase(&self.p1, 2..=3, rng)),
                titlecase(&phrase(&self.p0, 2..=5, rng)),
                w::GENRES.choose(rng).unwrap().to_string(),
                w::COPYRIGHT_LABELS.choose(rng).unwrap().to_string(),
                format!("{:.2}", (rng.gen_range(69..1299) as f64) / 100.0),
                rng.gen_range(120i64..600).to_string(),
                rng.gen_range(10000i64..19000).to_string(),
            ],
        }
    }

    /// The matched-B derivation: the same field-level dirt the resident
    /// simulators plant (paper Fig. 1 phenomena), applied to a rendered row.
    fn dirty(&self, src: &[String], rng: &mut StdRng) -> Vec<String> {
        let mut out = src.to_vec();
        match self.kind {
            DatasetKind::DblpAcm => {
                out[0] = if rng.gen_bool(0.4) {
                    misspell(&src[0].to_lowercase(), rng)
                } else {
                    src[0].to_lowercase()
                };
                out[1] = reorder_tokens(&src[1], rng);
                if rng.gen_bool(0.5) {
                    out[1] = abbreviate_tokens(&out[1], 1, rng);
                }
                out[2] = w::VENUE_LONG_FORMS
                    .iter()
                    .find(|(s, _)| *s == src[2])
                    .map(|(_, l)| l.to_string())
                    .unwrap_or_else(|| src[2].clone());
                if !rng.gen_bool(0.9) {
                    if let Ok(y) = src[3].parse::<i64>() {
                        out[3] = (y + 1).to_string();
                    }
                }
            }
            DatasetKind::Restaurant => {
                out[0] = misspell(&src[0], rng);
                if rng.gen_bool(0.3) {
                    out[0] = perturb_n(&out[0], &[Perturbation::CaseFold], 1, rng);
                }
                if rng.gen_bool(0.4) {
                    out[1] = format!("{} near downtown", src[1]);
                }
            }
            DatasetKind::WalmartAmazon => {
                if rng.gen_bool(0.2) {
                    out[0] = misspell(&src[0], rng);
                }
                out[1] = perturb_n(
                    &src[1],
                    &[
                        Perturbation::DropToken,
                        Perturbation::CaseFold,
                        Perturbation::Misspell,
                    ],
                    1,
                    rng,
                );
                if rng.gen_bool(0.5) {
                    out[2] = reorder_tokens(&src[2], rng);
                }
                if let Ok(p) = src[4].parse::<f64>() {
                    out[4] =
                        format!("{:.2}", (p * rng.gen_range(0.95f64..1.05) * 100.0).round() / 100.0);
                }
            }
            DatasetKind::ItunesAmazon => {
                if rng.gen_bool(0.5) {
                    out[0] = misspell(&src[0], rng);
                }
                out[1] = reorder_tokens(&src[1], rng);
                if let Ok(p) = src[5].parse::<f64>() {
                    out[5] =
                        format!("{:.2}", (p * rng.gen_range(0.9f64..1.1) * 100.0).round() / 100.0);
                }
                if let Ok(d) = src[7].parse::<i64>() {
                    out[7] = (d + rng.gen_range(-30i64..=30)).to_string();
                }
            }
        }
        out
    }

    /// Background corpora per column position (built from the background
    /// pool half, so they stay disjoint from the active domain).
    fn background(&self, rng: &mut StdRng) -> Vec<Vec<String>> {
        let many = |n: usize, f: &mut dyn FnMut(&mut StdRng) -> String, rng: &mut StdRng| {
            (0..n).map(|_| f(rng)).collect::<Vec<String>>()
        };
        match self.kind {
            DatasetKind::DblpAcm => vec![
                many(300, &mut |r| phrase(&self.p0, 4..=7, r), rng),
                many(300, &mut |r| author_list(&self.p1, &self.p2, r), rng),
                vec![],
                vec![],
            ],
            DatasetKind::Restaurant => vec![
                many(
                    200,
                    &mut |r| {
                        format!(
                            "{} {} {}",
                            self.p0.choose(r).unwrap(),
                            self.p1.choose(r).unwrap(),
                            w::RESTAURANT_SUFFIX.choose(r).unwrap()
                        )
                    },
                    rng,
                ),
                many(
                    200,
                    &mut |r| format!("{} {}", r.gen_range(1..=9999), self.p2.choose(r).unwrap()),
                    rng,
                ),
                vec![],
                vec![],
            ],
            DatasetKind::WalmartAmazon => vec![
                many(
                    150,
                    &mut |r| {
                        format!(
                            "{}{}-{}",
                            (b'A' + r.gen_range(0u8..26)) as char,
                            (b'A' + r.gen_range(0u8..26)) as char,
                            r.gen_range(100..9999)
                        )
                    },
                    rng,
                ),
                many(
                    250,
                    &mut |r| {
                        format!(
                            "{} {} {} {}",
                            w::PRODUCT_BRANDS.choose(r).unwrap(),
                            self.p0.choose(r).unwrap(),
                            self.p1.choose(r).unwrap(),
                            self.p0.choose(r).unwrap()
                        )
                    },
                    rng,
                ),
                many(
                    250,
                    &mut |r| {
                        format!(
                            "{} with {} and {}",
                            self.p1.choose(r).unwrap(),
                            self.p0.choose(r).unwrap(),
                            self.p0.choose(r).unwrap()
                        )
                    },
                    rng,
                ),
                vec![],
                vec![],
            ],
            DatasetKind::ItunesAmazon => vec![
                many(250, &mut |r| titlecase(&phrase(&self.p0, 2..=5, r)), rng),
                many(200, &mut |r| titlecase(&phrase(&self.p1, 2..=3, r)), rng),
                many(250, &mut |r| titlecase(&phrase(&self.p0, 2..=5, r)), rng),
                w::GENRES.iter().map(|s| s.to_string()).collect(),
                w::COPYRIGHT_LABELS.iter().map(|s| s.to_string()).collect(),
                vec![],
                vec![],
                vec![],
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_keeps_paper_ratios_and_caps_matches() {
        let spec = ScaleSpec::for_entities(DatasetKind::DblpAcm, 10_000);
        assert_eq!(spec.size_a + spec.size_b, 10_000);
        let stats = DatasetKind::DblpAcm.paper_stats();
        let want_a = 10_000.0 * stats.size_a as f64 / (stats.size_a + stats.size_b) as f64;
        assert!((spec.size_a as f64 - want_a).abs() <= 1.0);
        assert!(spec.matches <= spec.size_a.min(spec.size_b));
        assert!(spec.matches >= 2);
        // The A sources of planted matches are strictly increasing.
        for j in 1..spec.matches {
            assert!(spec.a_source(j) > spec.a_source(j - 1));
        }
    }

    #[test]
    fn stream_is_deterministic_and_counts_add_up() {
        let spec = ScaleSpec::for_entities(DatasetKind::Restaurant, 400);
        let collect = || {
            let mut rows: Vec<String> = Vec::new();
            stream(&spec, 9, |row| {
                rows.push(format!("{row:?}"));
                Ok(())
            })
            .unwrap();
            rows
        };
        let r1 = collect();
        let r2 = collect();
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), spec.size_a + spec.size_b + spec.matches);
    }

    #[test]
    fn matched_b_rows_resemble_their_a_source() {
        // The dirty derivation keeps the city column verbatim, so every
        // planted Restaurant match must agree on it.
        let spec = ScaleSpec::for_entities(DatasetKind::Restaurant, 300);
        let dir = std::env::temp_dir().join(format!("serd_scale_test_{}", std::process::id()));
        let stats = export_dir(&spec, 11, &dir).unwrap();
        assert_eq!(stats.rows_a, spec.size_a);
        assert_eq!(stats.rows_b, spec.size_b);
        assert_eq!(stats.matches, spec.matches);

        let sim = ingest_dir(DatasetKind::Restaurant, &dir).unwrap();
        assert_eq!(sim.er.a().len(), spec.size_a);
        assert_eq!(sim.er.b().len(), spec.size_b);
        assert_eq!(sim.er.num_matches(), spec.matches);
        for &(i, j) in sim.er.matches().iter() {
            assert_eq!(
                sim.er.a().entity(i).value(2),
                sim.er.b().entity(j).value(2),
                "match ({i},{j}) disagrees on city"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_ingest_roundtrip_all_kinds() {
        for kind in DatasetKind::all() {
            let spec = ScaleSpec::for_entities(kind, 200);
            let dir = std::env::temp_dir().join(format!(
                "serd_scale_rt_{}_{:?}",
                std::process::id(),
                kind
            ));
            export_dir(&spec, 5, &dir).unwrap();
            let sim = ingest_dir(kind, &dir).unwrap();
            assert_eq!(sim.er.a().len(), spec.size_a, "{kind:?}");
            assert_eq!(sim.er.b().len(), spec.size_b, "{kind:?}");
            assert_eq!(sim.er.num_matches(), spec.matches, "{kind:?}");
            assert_eq!(sim.background.len(), schema_of(kind).len(), "{kind:?}");
            assert!(!sim.background[0].is_empty(), "{kind:?} background");
            // Ranges were re-synced from the ingested data.
            let cols = sim.er.a().schema().columns();
            assert!(cols.iter().all(|c| c.range >= 0.0), "{kind:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    // Regression: DBLP-ACM and Restaurant both have four columns, and a
    // header check on field count alone ingested one as the other (title as
    // name, venue as the categorical city, year as flavor).
    #[test]
    fn ingest_refuses_another_datasets_export() {
        let spec = ScaleSpec::for_entities(DatasetKind::DblpAcm, 100);
        let dir = std::env::temp_dir().join(format!("serd_scale_kind_{}", std::process::id()));
        export_dir(&spec, 3, &dir).unwrap();
        let err = match ingest_dir(DatasetKind::Restaurant, &dir) {
            Ok(_) => panic!("a DBLP-ACM export ingested as Restaurant"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("A.csv") && msg.contains("\"title\"") && msg.contains("\"name\""),
            "{msg}"
        );
        assert!(ingest_dir(DatasetKind::DblpAcm, &dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_stays_disjoint_from_streamed_rows() {
        let spec = ScaleSpec::for_entities(DatasetKind::DblpAcm, 300);
        let mut titles = std::collections::HashSet::new();
        stream(&spec, 4, |row| {
            if let StreamRow::A(f) | StreamRow::B(f) = row {
                titles.insert(f[0].clone());
            }
            Ok(())
        })
        .unwrap();
        let bg = background_corpora(DatasetKind::DblpAcm, 4);
        let overlap = bg[0].iter().filter(|t| titles.contains(*t)).count();
        assert_eq!(overlap, 0, "background titles leak into the active domain");
    }
}
