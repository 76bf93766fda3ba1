//! Small self-contained helpers: a seeded generator, percentile rules,
//! answer fingerprints and the process memory probe.

use keybridge_core::{DiversifiedAnswer, ExecutedResult, RankedAnswer};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// SplitMix64: a tiny, fully specified generator, so a seed means the same
/// inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it — a tail the sample cannot
/// support is never reported.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// Median of an ascending slice (`NaN` when empty).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Fingerprint of a ranked answer list: interpretation, row ids of every
/// joining tuple tree, and the exact score bits, in order.
pub fn fp_answers(answers: &[RankedAnswer]) -> u64 {
    crate::trace::fp_parts(
        answers
            .iter()
            .map(|a| (&a.interpretation, &a.jtt, a.log_score)),
    )
}

/// Fingerprint of a diversified reply: pool size plus every selected
/// interpretation with its result keys and score bits.
pub fn fp_diversified(pool: usize, answers: &[DiversifiedAnswer]) -> u64 {
    let mut h = DefaultHasher::new();
    pool.hash(&mut h);
    for a in answers {
        a.interpretation.hash(&mut h);
        a.keys.hash(&mut h);
        a.pool_rank.hash(&mut h);
        a.log_score.to_bits().hash(&mut h);
        a.relevance.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Fingerprint of a session window: candidate index plus row ids of every
/// joining tuple tree.
pub fn fp_window(window: &[(usize, Arc<ExecutedResult>)]) -> u64 {
    let mut h = DefaultHasher::new();
    window.len().hash(&mut h);
    for (i, r) in window {
        i.hash(&mut h);
        r.jtts.hash(&mut h);
    }
    h.finish()
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// CPU time this process has used on all its threads, exited ones
/// included, in seconds, to the nanosecond. With the kernel's paravirtual
/// time accounting, time the hypervisor stole from the virtual CPUs is not
/// in it.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two C longs on 64-bit
    // Linux, the layout `Timespec` declares), and `clock_gettime` writes
    // only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 is rank 990 with exactly 10 beyond it.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // 999 samples: only 9 lie beyond rank 990.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 5.0]), 2.5);
    }

    #[test]
    fn generator_is_seed_deterministic() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(9);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(9);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(SplitMix::new(9).next_u64(), SplitMix::new(10).next_u64());
    }
}
