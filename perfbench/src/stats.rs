//! Exact order statistics, digests and process memory readings.

/// The exact nearest-rank quantile `q` (0 < q ≤ 1) of `samples`: the
/// smallest sample with at least `q · n` samples at or below it. Nothing
/// is interpolated, so the result is always one of the measured values.
/// `None` when there are no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The median by the same nearest-rank rule.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Arithmetic mean, `None` when empty.
#[must_use]
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// FNV-1a 64 of `bytes`. The benchmark keeps its own copy so its digests
/// cannot move when the program's hashing code is refactored.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a 64 over a sequence of 64-bit words (little-endian bytes).
#[must_use]
pub fn digest_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
}

/// CPU time the calling thread has run so far (Linux
/// `CLOCK_THREAD_CPUTIME_ID`). Unlike wall time it stops while the thread
/// waits for a CPU, whether another task or the hypervisor holds it (the
/// kernel leaves stolen time out when it accounts paravirtual steal).
/// Elsewhere it falls back to wall time since the first call.
#[must_use]
pub fn thread_cpu_time() -> std::time::Duration {
    #[cfg(target_os = "linux")]
    {
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = [0i64; 2];
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on the 64-bit Linux targets), the only memory the call
        // writes.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            return std::time::Duration::new(ts[0] as u64, ts[1] as u32);
        }
    }
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed()
}

/// Resets the kernel's resident-set high-water mark for this process, so
/// a later [`peak_rss_mib`] covers only what ran after this call.
pub fn reset_peak_rss() {
    // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_measured_values() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
        // An infinite sample (a failed request) sorts last and surfaces
        // once it reaches the rank.
        let with_fail = [1.0, 2.0, f64::INFINITY];
        assert_eq!(quantile(&with_fail, 0.99), Some(f64::INFINITY));
        assert_eq!(median(&with_fail), Some(2.0));
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_eq!(digest_words(&[1, 2]), digest_words(&[1, 2]));
        assert_ne!(digest_words(&[1, 2]), digest_words(&[2, 1]));
    }
}
