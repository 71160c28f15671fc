//! Small statistics and process helpers.

/// Median of `samples` (sorted in place); 0 for an empty slice.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// This process's peak resident set in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    dfl_bench::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}
