//! A speed gauge for the shared host the benchmark runs on.
//!
//! Other tenants of a shared host slow this process down by up to half
//! for seconds to minutes at a time; no choice of inputs or run length
//! averages that away, because a whole run can fall inside one slow
//! phase. The gauge times a small fixed kernel of the benchmark's own
//! between operations: format pseudo-random keys as strings, sort them
//! and index them in a `HashMap`, the kinds of work the program does,
//! but through no program code. Its time rises and falls with the
//! program's during those phases, while the program's own speed cannot
//! move it.
//! Wall times are reported scaled by `REFERENCE_US / kernel time`:
//! what they would read on a machine where the kernel takes
//! [`REFERENCE_US`].

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at a typical moment on a 2-vCPU Intel Xeon VM
/// (4 MiB L2 per core). Scaled times read as wall times on that VM then.
pub const REFERENCE_US: f64 = 100.0;

/// Wall time of work between two gauge readings after which the next
/// reading is taken (one reading costs about a millisecond).
const SEGMENT_MS: f64 = 20.0;

const KEYS: usize = 512;

/// The kernel's time in microseconds: the lowest of three runs, so that
/// a preemption inside one run does not count.
pub fn read() -> f64 {
    (0..3).map(|_| once()).fold(f64::INFINITY, f64::min)
}

/// The median of `n` readings, for a factor that must hold for a whole
/// fleet run.
pub fn read_median(n: usize) -> f64 {
    let readings: Vec<f64> = (0..n.max(1)).map(|_| read()).collect();
    crate::report::median(&readings)
}

fn once() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut keys: Vec<String> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            format!("P{:08}", x % 100_000_007)
        })
        .collect();
    keys.sort_unstable();
    let index: HashMap<&str, usize> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), i))
        .collect();
    black_box(index.len());
    started.elapsed().as_secs_f64() * 1e6
}

/// The factor that scales wall times measured between two readings.
pub fn factor(before_us: f64, after_us: f64) -> f64 {
    2.0 * REFERENCE_US / (before_us + after_us)
}

/// Scales a stream of per-operation wall times: after every
/// [`SEGMENT_MS`] of operations it reads the gauge and scales the
/// segment's times by the factor of the readings at its two ends.
pub struct Scaler {
    last_us: f64,
    pending: Vec<f64>,
    pending_ms: f64,
    scaled_ms: Vec<f64>,
    /// Gauge readings taken, in microseconds.
    pub readings: Vec<f64>,
}

impl Scaler {
    pub fn new() -> Scaler {
        let last_us = read();
        Scaler {
            last_us,
            pending: Vec::new(),
            pending_ms: 0.0,
            scaled_ms: Vec::new(),
            readings: vec![last_us],
        }
    }

    /// Record one operation's wall time; call between operations.
    pub fn push(&mut self, wall_ms: f64) {
        self.pending.push(wall_ms);
        self.pending_ms += wall_ms;
        if self.pending_ms >= SEGMENT_MS {
            self.close();
        }
    }

    fn close(&mut self) {
        let now_us = read();
        let f = factor(self.last_us, now_us);
        self.scaled_ms.extend(self.pending.drain(..).map(|ms| ms * f));
        self.pending_ms = 0.0;
        self.last_us = now_us;
        self.readings.push(now_us);
    }

    /// The scaled times of every operation pushed, in order.
    pub fn finish(mut self) -> (Vec<f64>, Vec<f64>) {
        if !self.pending.is_empty() {
            self.close();
        }
        (self.scaled_ms, self.readings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaler_keeps_every_operation_in_order() {
        let mut s = Scaler::new();
        for i in 0..50 {
            s.push(f64::from(i));
        }
        let (scaled, readings) = s.finish();
        assert_eq!(scaled.len(), 50);
        assert!(readings.len() >= 2);
        assert!(readings.iter().all(|&r| r > 0.0));
        // One factor per segment: ratios within a segment are kept.
        assert!((scaled[2] / scaled[1] - 2.0).abs() < 1e-9);
        assert_eq!(scaled[0], 0.0);
    }

    #[test]
    fn factor_is_one_at_the_reference_speed() {
        assert!((factor(REFERENCE_US, REFERENCE_US) - 1.0).abs() < 1e-12);
        assert!((factor(2.0 * REFERENCE_US, 2.0 * REFERENCE_US) - 0.5).abs() < 1e-12);
    }
}
