//! Plain-text persistence for fitted mixtures.
//!
//! The paper's pipeline splits into an *offline* phase (hours: train models,
//! learn distributions) and an *online* phase (minutes: synthesize). This
//! module lets the offline artifacts — the learned `O`-distribution — be
//! saved and shipped without any dependency on a serialization crate. The
//! format is a line-oriented text format with full `f64` precision (hex
//! bits), versioned for forward compatibility.
//!
//! Note the privacy angle: an `OMixture` file contains only distribution
//! parameters, which is exactly the artifact the paper argues is safe to
//! share (Section II-D).

use crate::em::SuffStats;
use crate::{Gaussian, Gmm, GmmError, OMixture, Result};
use linalg::Matrix;
use persist::{Persist, Reader, Writer};
use std::fmt::Write as _;

const MAGIC: &str = "serd-gmm-v1";

/// Serializes a mixture to the text format.
pub fn gmm_to_string(gmm: &Gmm) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "components {}", gmm.num_components());
    let _ = writeln!(out, "dim {}", gmm.dim());
    let _ = writeln!(out, "reg_covar {}", f64_to_hex(gmm.reg_covar()));
    let _ = writeln!(out, "n {}", f64_to_hex(gmm.stats().n));
    for k in 0..gmm.num_components() {
        let _ = writeln!(out, "weight {}", f64_to_hex(gmm.weights()[k]));
        let comp = &gmm.components()[k];
        let _ = writeln!(out, "mean {}", vec_to_hex(comp.mean()));
        let _ = writeln!(out, "cov {}", vec_to_hex(comp.cov().as_slice()));
        let _ = writeln!(out, "gamma {}", f64_to_hex(gmm.stats().gamma[k]));
        let _ = writeln!(out, "sum_x {}", vec_to_hex(&gmm.stats().sum_x[k]));
        let _ = writeln!(out, "sum_xx {}", vec_to_hex(gmm.stats().sum_xx[k].as_slice()));
    }
    out
}

/// Parses a mixture from the text format.
pub fn gmm_from_str(text: &str) -> Result<Gmm> {
    let mut lines = text.lines();
    expect(&mut lines, MAGIC)?;
    let g: usize = parse_kv(lines.next(), "components")?;
    let d: usize = parse_kv(lines.next(), "dim")?;
    let reg_covar = hex_to_f64(&parse_kv::<String>(lines.next(), "reg_covar")?)?;
    let n = hex_to_f64(&parse_kv::<String>(lines.next(), "n")?)?;
    // `g` and `d` size the allocations below, so bound them by what the rest
    // of the text can hold first: each component takes 6 lines, and its
    // `cov` line holds d² hex tokens of 16 digits.
    let rest_lines = lines.clone().count();
    let rest_bytes: usize = lines.clone().map(str::len).sum();
    let cov_bytes = d
        .checked_mul(d)
        .and_then(|dd| dd.checked_mul(g))
        .and_then(|t| t.checked_mul(16));
    if g == 0
        || g.checked_mul(6).is_none_or(|l| l > rest_lines)
        || cov_bytes.is_none_or(|b| b > rest_bytes)
    {
        return Err(GmmError::Parse(format!(
            "{g} components of dimension {d} do not fit in the {rest_lines} lines \
             ({rest_bytes} bytes) that follow"
        )));
    }

    let mut weights = Vec::with_capacity(g);
    let mut components = Vec::with_capacity(g);
    let mut stats = SuffStats::zeros(g, d);
    stats.n = n;
    for k in 0..g {
        weights.push(hex_to_f64(&parse_kv::<String>(lines.next(), "weight")?)?);
        let mean = hex_to_vec(&parse_kv::<String>(lines.next(), "mean")?, d)?;
        let cov_data = hex_to_vec(&parse_kv::<String>(lines.next(), "cov")?, d * d)?;
        let cov = Matrix::from_vec(d, d, cov_data);
        components.push(Gaussian::new(mean, cov)?);
        stats.gamma[k] = hex_to_f64(&parse_kv::<String>(lines.next(), "gamma")?)?;
        stats.sum_x[k] = hex_to_vec(&parse_kv::<String>(lines.next(), "sum_x")?, d)?;
        let sxx = hex_to_vec(&parse_kv::<String>(lines.next(), "sum_xx")?, d * d)?;
        stats.sum_xx[k] = Matrix::from_vec(d, d, sxx);
    }
    Gmm::from_parts(weights, components, stats, reg_covar)
}

/// Serializes an `O`-distribution (π + both mixtures).
pub fn omixture_to_string(o: &OMixture) -> String {
    format!(
        "serd-omixture-v1\npi {}\n--m--\n{}--n--\n{}",
        f64_to_hex(o.pi()),
        gmm_to_string(o.m()),
        gmm_to_string(o.n())
    )
}

/// Parses an `O`-distribution.
pub fn omixture_from_str(text: &str) -> Result<OMixture> {
    let mut parts = text.splitn(2, "--m--\n");
    let header = parts.next().unwrap_or("");
    let rest = parts
        .next()
        .ok_or_else(|| GmmError::Parse("missing --m-- section".into()))?;
    let mut header_lines = header.lines();
    expect(&mut header_lines, "serd-omixture-v1")?;
    let pi = hex_to_f64(&parse_kv::<String>(header_lines.next(), "pi")?)?;
    // Checked before `OMixture::new`, which clamps π into range: a clamped
    // ±Inf or 2.0 would otherwise load silently. NaN fails the range test.
    if !(0.0..=1.0).contains(&pi) {
        return Err(GmmError::Parse(format!("pi {pi} out of [0, 1]")));
    }
    let mut mn = rest.splitn(2, "--n--\n");
    let m_text = mn
        .next()
        .ok_or_else(|| GmmError::Parse("missing M mixture".into()))?;
    let n_text = mn
        .next()
        .ok_or_else(|| GmmError::Parse("missing --n-- section".into()))?;
    OMixture::new(pi, gmm_from_str(m_text)?, gmm_from_str(n_text)?)
}

/// Upper bound on embedded o-distribution line counts.
const MAX_EMBEDDED_LINES: usize = 1 << 22;

/// [`Persist`] wrapper for the `O`-distribution: the established
/// `serd-omixture-v1` text is embedded verbatim behind a line count, so the
/// standalone format and the model-artifact embedding stay byte-compatible.
impl Persist for OMixture {
    const MAGIC: &'static str = "serd-odist-v1";

    fn write_body(&self, w: &mut Writer) {
        let text = omixture_to_string(self);
        let lines: Vec<&str> = text.lines().collect();
        w.kv("lines", lines.len());
        for l in lines {
            w.line(l);
        }
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let n = r.kv_usize("lines")?;
        if n > MAX_EMBEDDED_LINES {
            return Err(r.invalid(format!("implausible line count {n}")));
        }
        let start = r.line_no();
        let mut text = String::new();
        for _ in 0..n {
            text.push_str(r.raw_line()?);
            text.push('\n');
        }
        let o = omixture_from_str(&text).map_err(|e| persist::PersistError::Invalid {
            line: start,
            msg: format!("o-distribution: {e}"),
        })?;
        // `omixture_from_str` checks structure and π's range; finiteness of
        // the mixtures is this layer's policy — a NaN mean would silently
        // poison every posterior online.
        for (name, g) in [("m", o.m()), ("n", o.n())] {
            let st = g.stats();
            let finite = g.reg_covar().is_finite()
                && g.weights().iter().all(|w| w.is_finite())
                && g.components().iter().all(|c| {
                    c.mean().iter().all(|v| v.is_finite())
                        && c.cov().as_slice().iter().all(|v| v.is_finite())
                })
                && st.n.is_finite()
                && st.gamma.iter().all(|v| v.is_finite())
                && st.sum_x.iter().flatten().all(|v| v.is_finite())
                && st.sum_xx.iter().all(|m| m.as_slice().iter().all(|v| v.is_finite()));
            if !finite {
                return Err(r.invalid(format!("non-finite parameters in mixture {name:?}")));
            }
        }
        Ok(o)
    }
}

fn expect<'a>(lines: &mut impl Iterator<Item = &'a str>, magic: &str) -> Result<()> {
    match lines.next() {
        Some(l) if l.trim() == magic => Ok(()),
        other => Err(GmmError::Parse(format!(
            "expected header {magic:?}, found {other:?}"
        ))),
    }
}

fn parse_kv<T: std::str::FromStr>(line: Option<&str>, key: &str) -> Result<T> {
    let line = line.ok_or_else(|| GmmError::Parse(format!("missing line for {key}")))?;
    let rest = line
        .strip_prefix(key)
        .ok_or_else(|| GmmError::Parse(format!("expected key {key:?} in {line:?}")))?
        .trim();
    rest.parse()
        .map_err(|_| GmmError::Parse(format!("bad value for {key}: {rest:?}")))
}

fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn hex_to_f64(s: &str) -> Result<f64> {
    u64::from_str_radix(s.trim(), 16)
        .map(f64::from_bits)
        .map_err(|_| GmmError::Parse(format!("bad f64 hex {s:?}")))
}

fn vec_to_hex(v: &[f64]) -> String {
    v.iter().map(|&x| f64_to_hex(x)).collect::<Vec<_>>().join(" ")
}

fn hex_to_vec(s: &str, expected: usize) -> Result<Vec<f64>> {
    let out: Result<Vec<f64>> = s.split_whitespace().map(hex_to_f64).collect();
    let out = out?;
    if out.len() != expected {
        return Err(GmmError::Parse(format!(
            "expected {expected} values, found {}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GmmConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fitted(seed: u64) -> Gmm {
        let mut rng = StdRng::seed_from_u64(seed);
        let g1 = Gaussian::isotropic(vec![0.2, 0.1], 0.01).unwrap();
        let g2 = Gaussian::isotropic(vec![0.8, 0.9], 0.01).unwrap();
        let data: Vec<Vec<f64>> = (0..100)
            .map(|i| if i % 2 == 0 { g1.sample(&mut rng) } else { g2.sample(&mut rng) })
            .collect();
        Gmm::fit(&data, 2, &GmmConfig::default(), &mut rng).unwrap()
    }

    #[test]
    fn gmm_roundtrip_bitexact() {
        let gmm = fitted(1);
        let text = gmm_to_string(&gmm);
        let back = gmm_from_str(&text).unwrap();
        assert_eq!(back.num_components(), 2);
        assert_eq!(back.weights(), gmm.weights());
        for x in [[0.5, 0.5], [0.1, 0.2], [0.95, 0.85]] {
            assert_eq!(back.log_pdf(&x), gmm.log_pdf(&x));
        }
    }

    #[test]
    fn roundtrip_preserves_incremental_updates() {
        let gmm = fitted(2);
        let text = gmm_to_string(&gmm);
        let mut a = gmm_from_str(&text).unwrap();
        let mut b = gmm_from_str(&text).unwrap();
        let delta = vec![vec![0.5, 0.5]; 10];
        a.update_incremental(&delta).unwrap();
        b.update_incremental(&delta).unwrap();
        assert_eq!(a.log_pdf(&[0.5, 0.5]), b.log_pdf(&[0.5, 0.5]));
    }

    #[test]
    fn omixture_roundtrip() {
        let o = OMixture::new(0.21, fitted(3), fitted(4)).unwrap();
        let text = omixture_to_string(&o);
        let back = omixture_from_str(&text).unwrap();
        assert_eq!(back.pi(), 0.21);
        for x in [[0.3, 0.3], [0.8, 0.8]] {
            assert_eq!(back.posterior_match(&x), o.posterior_match(&x));
        }
    }

    #[test]
    fn omixture_persist_roundtrip_bitexact() {
        let o = OMixture::new(0.33, fitted(6), fitted(7)).unwrap();
        let text = o.to_persist_string();
        let back = OMixture::from_persist_str(&text).unwrap();
        assert_eq!(back.pi().to_bits(), o.pi().to_bits());
        for x in [[0.3, 0.3], [0.8, 0.8]] {
            assert_eq!(back.posterior_match(&x), o.posterior_match(&x));
        }
        assert_eq!(back.to_persist_string(), text);
    }

    #[test]
    fn omixture_persist_rejects_nan_means() {
        let o = OMixture::new(0.33, fitted(8), fitted(9)).unwrap();
        let good_mean = vec_to_hex(o.m().components()[0].mean());
        let nan_mean = vec_to_hex(&[f64::NAN, o.m().components()[0].mean()[1]]);
        let text = o.to_persist_string().replacen(&good_mean, &nan_mean, 1);
        assert!(OMixture::from_persist_str(&text).is_err());
    }

    #[test]
    fn omixture_persist_rejects_truncation() {
        let o = OMixture::new(0.5, fitted(10), fitted(11)).unwrap();
        let text = o.to_persist_string();
        let cut: String = text
            .lines()
            .take(text.lines().count() / 2)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(OMixture::from_persist_str(&cut).is_err());
    }

    #[test]
    fn header_counts_beyond_the_text_are_parse_errors() {
        let text = gmm_to_string(&fitted(12));
        assert!(gmm_from_str(&text).is_ok());
        for (line, bad) in [
            ("components 2", "components 100000000000"),
            ("components 2", "components 0"),
            ("components 2", "components 3"),
            ("dim 2", "dim 100000000000"),
            ("dim 2", "dim 4294967296"),
            ("dim 2", "dim 18446744073709551615"),
        ] {
            let edited = text.replacen(line, bad, 1);
            assert!(
                matches!(gmm_from_str(&edited), Err(GmmError::Parse(_))),
                "{bad:?} accepted"
            );
        }
    }

    #[test]
    fn corrupt_input_is_rejected() {
        assert!(gmm_from_str("not a gmm").is_err());
        assert!(omixture_from_str("serd-omixture-v1\npi zz\n").is_err());
        let gmm = fitted(5);
        let mut text = gmm_to_string(&gmm);
        text.truncate(text.len() / 2);
        assert!(gmm_from_str(&text).is_err());
    }
}
