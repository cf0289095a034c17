//! Percentiles, quartiles and the digest the correctness checks use.

use crate::json::Json;

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted, non-empty slice (mean of the two middle values
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample set");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so the
/// `--repeat` self-check judges spread the way the driver does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (n, len) = (4usize, v.len());
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    cuts
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// A latency sample set summarised: count beside every percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
    pub mean: f64,
}

impl Distribution {
    /// Summarise `samples` (any order, non-empty).
    pub fn of(samples: &[f64]) -> Distribution {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Distribution {
            samples: v.len(),
            p50: percentile(&v, 50.0),
            p90: percentile(&v, 90.0),
            p95: percentile(&v, 95.0),
            p99: percentile(&v, 99.0),
            max: v[v.len() - 1],
            mean: v.iter().sum::<f64>() / v.len() as f64,
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("unit", Json::str(unit)),
            ("samples", Json::Int(self.samples as i64)),
            ("p50", Json::Num(self.p50)),
            ("p90", Json::Num(self.p90)),
            ("p95", Json::Num(self.p95)),
            ("p99", Json::Num(self.p99)),
            ("max", Json::Num(self.max)),
            ("mean", Json::Num(self.mean)),
        ])
    }
}

/// Item count plus FNV-1a hash of the serialized bytes of one result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub items: usize,
    pub hash: u64,
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} items, hash {:016x}", self.items, self.hash)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

impl Digest {
    pub fn of(items: usize, serialized: &str) -> Digest {
        Digest {
            items,
            hash: fnv1a(FNV_OFFSET, serialized.as_bytes()),
        }
    }

    /// One digest over a sequence of digests (order-sensitive): the golden
    /// value of a statement stream too long to list.
    pub fn combine(digests: &[Digest]) -> Digest {
        let mut items = 0;
        let mut hash = FNV_OFFSET;
        for d in digests {
            items += d.items;
            hash = fnv1a(hash, &(d.items as u64).to_le_bytes());
            hash = fnv1a(hash, &d.hash.to_le_bytes());
        }
        Digest { items, hash }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("items", Json::Int(self.items as i64)),
            ("hash", Json::Str(format!("{:016x}", self.hash))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0]), [2.0, 7.0, 10.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn distribution_reports_count_and_tail() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let d = Distribution::of(&v);
        assert_eq!(d.samples, 200);
        assert_eq!(
            (d.p50, d.p90, d.p95, d.p99, d.max),
            (100.0, 180.0, 190.0, 198.0, 200.0)
        );
        assert_eq!(d.mean, 100.5);
    }

    #[test]
    fn digest_distinguishes_bytes_count_and_order() {
        assert_eq!(Digest::of(1, "abc"), Digest::of(1, "abc"));
        assert_ne!(Digest::of(1, "abc"), Digest::of(1, "abd"));
        assert_ne!(Digest::of(1, "abc"), Digest::of(2, "abc"));
        let (a, b) = (Digest::of(1, "a"), Digest::of(1, "b"));
        assert_ne!(Digest::combine(&[a, b]), Digest::combine(&[b, a]));
        assert_eq!(Digest::combine(&[a, b]).items, 2);
    }
}
