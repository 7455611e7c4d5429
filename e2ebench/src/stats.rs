//! Small numeric and host helpers shared by the workloads.

/// Nearest-rank percentile of `values` (`q` in `0..=1`); NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values`; 0 when empty (a layer that did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Whether `n` samples leave at least ten beyond percentile `q`.
pub fn supports_percentile(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q) + 1e-9).floor() >= 10.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free memory to the OS, so that memory freed by
/// one repetition does not linger in an arena the next one may not reuse,
/// and every repetition starts from the same resident footprint.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only walks the C allocator's own free lists
    // under its locks; it takes no pointers from the caller.
    unsafe {
        malloc_trim(0);
    }
}

/// The host block printed with every run: what the numbers were measured on.
pub fn host_block(kernel_threads: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "host: cpu \"{cpu}\", nproc {nproc}, simd {}, numerics {}, kernel threads {kernel_threads}",
        apollo_tensor::simd_tier().name(),
        apollo_tensor::current_numerics().name(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert!(supports_percentile(100, 0.9));
        assert!(!supports_percentile(999, 0.99));
    }
}
