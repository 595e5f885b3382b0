//! Small numeric and host helpers: order statistics, peak RSS, host
//! cores and the fixed calibration loop.

use std::time::Instant;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of the quantiles `qs` (ascending) that leaves at least ten
/// samples beyond it, as `(q, value)`; falls back to the median.
pub fn tail(values: &[f64], qs: &[f64]) -> (f64, f64) {
    let mut best = (0.5, median(values));
    for &q in qs {
        if (values.len() as f64) * (1.0 - q) >= 10.0 {
            best = (q, quantile(values, q));
        }
    }
    best
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current RSS, so the peak counts
/// only what happens after input generation.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Time of a fixed integer loop (50M xorshift steps), in ms: a host
/// speed reference for normalising numbers taken on different machines.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..50_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    ms_since(t)
}

/// A fixed, program-independent workload shaped like the engine's inner
/// loops (ordered-map lookups and updates, hashing, branches) over a
/// working set that fits in the core's private caches. Its time follows
/// how much of the core the host leaves to this process.
pub struct Reference {
    map: std::collections::BTreeMap<u64, u64>,
    keys: Vec<u64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let keys: Vec<u64> = (0..65_536)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let map = keys.iter().map(|&k| (k, k >> 3)).collect();
        Reference { map, keys }
    }

    /// Time of 400k lookups and 100k remove/insert pairs, in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..400_000usize {
            let k = self.keys[(i * 7919) % self.keys.len()];
            acc = acc.wrapping_add(self.map.get(&k).copied().unwrap_or(0));
            if i % 4 == 0 {
                let v = self.map.remove(&k).unwrap_or(0);
                self.map.insert(k, v ^ acc);
            }
        }
        std::hint::black_box(acc);
        ms_since(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&v, &[0.9, 0.95, 0.99]).0, 0.95);
        assert_eq!(tail(&v[..50], &[0.9, 0.99]).0, 0.5);
    }
}
