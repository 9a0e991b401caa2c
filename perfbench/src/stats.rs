//! Order statistics over measured samples.

/// Sorts a sample of finite values in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The exact-rank percentile of an unsorted sample (the definition the
/// repository's own load generator uses); 0 for an empty sample.
pub fn pct(v: &[f64], q: f64) -> f64 {
    pra_serve::bench::percentile(&sorted(v.to_vec()), q)
}

/// The median of an unsorted sample: the mean of the two middle values
/// for an even count; 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
