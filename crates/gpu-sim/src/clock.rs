//! Timing utilities: calibrated busy-spinning and scaled durations.
//!
//! The transport link model injects synthetic per-chunk transfer delays to shape
//! bandwidth/latency curves like the paper's testbed. Delays are implemented by
//! busy-spinning (not sleeping) because the granularity is often well below the
//! OS scheduler quantum, and because busy-waiting matches how real collective
//! kernels occupy the GPU while waiting for data.

use std::time::{Duration, Instant};

/// Busy-spin for approximately `d`. Spinning (rather than `thread::sleep`)
/// keeps sub-10µs delays accurate and mirrors the busy-wait execution mode of
/// GPU collective kernels.
pub fn busy_spin(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// A global multiplier applied to modelled durations, so that benchmarks that
/// model large transfers (or thousands of iterations) finish in reasonable
/// wall-clock time while preserving *relative* magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeScale {
    /// Multiplier applied to modelled nanoseconds. `1.0` = real scale.
    pub factor: f64,
}

impl Default for TimeScale {
    fn default() -> Self {
        TimeScale { factor: 1.0 }
    }
}

impl TimeScale {
    /// A scale that compresses modelled time by `1/n`.
    pub fn compressed(n: f64) -> Self {
        assert!(n > 0.0, "compression factor must be positive");
        TimeScale { factor: 1.0 / n }
    }

    /// Apply the scale to a modelled duration expressed in nanoseconds.
    pub fn scale_nanos(&self, nanos: f64) -> Duration {
        let scaled = (nanos * self.factor).max(0.0);
        Duration::from_nanos(scaled as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_spin_waits_at_least_requested() {
        let d = Duration::from_micros(200);
        let start = Instant::now();
        busy_spin(d);
        assert!(start.elapsed() >= d);
    }

    #[test]
    fn busy_spin_zero_returns_immediately() {
        let start = Instant::now();
        busy_spin(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn time_scale_compresses() {
        let ts = TimeScale::compressed(10.0);
        assert_eq!(ts.scale_nanos(100_000.0), Duration::from_micros(10));
    }

    #[test]
    fn time_scale_default_is_identity() {
        let ts = TimeScale::default();
        assert_eq!(ts.scale_nanos(1234.0), Duration::from_nanos(1234));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn time_scale_rejects_zero_compression() {
        let _ = TimeScale::compressed(0.0);
    }
}
