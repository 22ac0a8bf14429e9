//! Order statistics over timing samples.

/// Linear-interpolated quantile of an ascending slice (the "inclusive"
/// method: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ascending(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&ascending(samples), 0.5)
}

/// What the report prints for one series of samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q25: f64,
    pub q75: f64,
    /// The highest percentile that still has at least ten samples beyond it
    /// (`None` below twenty samples), with its value.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let v = ascending(samples);
    let n = v.len();
    let tail = (n >= 20).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]));
    Summary {
        n,
        median: quantile(&v, 0.5),
        q25: quantile(&v, 0.25),
        q75: quantile(&v, 0.75),
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(summarize(&few).tail.is_none());
        let many: Vec<f64> = (0..100).map(f64::from).collect();
        let (pct, value) = summarize(&many).tail.unwrap();
        assert_eq!(pct, 90.0);
        assert_eq!(value, 89.0);
    }
}
