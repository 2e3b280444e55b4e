//! Order statistics, digests and seed derivation shared by every workload.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples: `ceil(p/100 · n)`,
/// clamped to `[1, n]`. The product is rounded to 1e-9 first, so decimal
/// percentiles that binary floats cannot hold exactly (99.9 · 10000 is
/// 9990.000000000002) do not round up a whole rank.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    let exact = p / 100.0 * n as f64;
    let rank = ((exact * 1e9).round() / 1e9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples` (any order). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(p, sorted.len()) - 1])
}

/// The median (nearest rank, so always an observed sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_BEYOND`] samples beyond its nearest rank. `None` when even the
/// median has fewer than that many samples above it (under 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n >= nearest_rank(p, n) + TAIL_BEYOND)
}

/// The tail the sample supports, as `(percentile, value)`; falls back to the
/// median (reported as percentile 50) when no tail percentile is supported.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(samples.len()).unwrap_or(50.0);
    percentile(samples, p).map(|v| (p, v))
}

/// 64-bit FNV-1a: the content digest the serving layer puts in its etags,
/// and the digest every run records for its outputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: derives independent sub-seeds from the workload
/// seed, a stream tag and an index, so every input is a function of the
/// seed alone.
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ i.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), Some(9.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - nearest_rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_falls_back_to_the_median() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 3.0)));
        let ys: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&ys), Some((99.0, 990.0)));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 1, 0), derive_seed(7, 1, 0));
        assert_ne!(derive_seed(7, 1, 0), derive_seed(7, 1, 1));
        assert_ne!(derive_seed(7, 1, 0), derive_seed(7, 2, 0));
        assert_ne!(derive_seed(7, 1, 0), derive_seed(8, 1, 0));
    }
}
