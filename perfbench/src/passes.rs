//! Repeated passes over the same operations, and the median time of
//! each operation across them.
//!
//! An untraced run builds a fresh system for every pass and runs the
//! same operations on it, so that operation `i` does the same work in
//! every pass: the program is deterministic for a seed. An operation's
//! median over the passes drops the passes in which a burst of load
//! from other tenants of the host, too short for the speed gauge
//! (`speed.rs`) to see, fell on it.

use crate::report::median;
use std::time::Instant;

/// Passes every untraced run makes at the least, whatever `--seconds`.
pub const MIN_PASSES: usize = 3;

/// Call `pass` until `seconds` have passed, at least [`MIN_PASSES`]
/// times, starting no pass that would end after `seconds` at the mean
/// length of the passes so far. A pass that returns `None` stops the
/// loop (it has recorded why).
pub fn repeat<T>(seconds: f64, mut pass: impl FnMut() -> Option<T>) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let mean = elapsed / out.len().max(1) as f64;
        if out.len() >= MIN_PASSES && elapsed + mean > seconds {
            return out;
        }
        match pass() {
            Some(p) => out.push(p),
            None => return out,
        }
    }
}

/// The median value at each index over `passes`, or `None` when the
/// passes are empty or differ in length (an operation failed in one).
pub fn median_per_op(passes: &[Vec<f64>]) -> Option<Vec<f64>> {
    let n = passes.first()?.len();
    if passes.iter().any(|p| p.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<f64>>()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_taken_at_each_index() {
        let passes = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 5.5], vec![9.0, 2.0, 1.0]];
        assert_eq!(median_per_op(&passes), Some(vec![3.0, 2.0, 5.0]));
        assert_eq!(median_per_op(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(median_per_op(&[]), None);
    }

    #[test]
    fn repeat_makes_the_minimum_number_of_passes() {
        let mut n = 0;
        let out = repeat(0.0, || {
            n += 1;
            Some(n)
        });
        assert_eq!(out, vec![1, 2, 3]);
        let out = repeat(10.0, || None::<u32>);
        assert!(out.is_empty());
    }
}
