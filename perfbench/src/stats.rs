//! Sample summaries and open-loop schedule helpers.
//!
//! Timings are summarised as a median plus the highest percentile that
//! still has at least [`MIN_TAIL_SAMPLES`] samples beyond it; a `_p95`
//! is refused (returns `None`) when the sample cannot support it.
//! Open-loop latency is timed from when an event was *due*, not from
//! when the generator got round to sending it, so a stall in the
//! generator or the system counts against every event it delayed.

use std::time::{Duration, Instant};

/// Samples a tail percentile must have strictly beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Nearest-rank percentile `q` (in `[0, 100]`) of `samples`; `None` when
/// empty. Non-finite samples are a caller bug.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64 / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Arithmetic mean; NaN when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median (the 50th nearest-rank percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`
/// samples.
fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64 / 100.0).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support
/// (at least [`MIN_TAIL_SAMPLES`] beyond it).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_TAIL_SAMPLES)
}

/// The 95th percentile, refused (`None`) unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn p95(samples: &[f64]) -> Option<f64> {
    if beyond(samples.len(), 95.0) < MIN_TAIL_SAMPLES {
        return None;
    }
    percentile(samples, 95.0)
}

/// Median and highest supported tail of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the highest supported tail, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let p50 = median(samples)?;
        let tail =
            supported_tail(samples.len()).map(|q| (q, percentile(samples, q).expect("non-empty")));
        Some(Self {
            n: samples.len(),
            p50,
            tail,
        })
    }
}

/// A fixed-rate open-loop schedule: event `i` is due at
/// `start + i / rate`, whatever happened to earlier events.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
}

impl Schedule {
    /// Events at `rate` per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        assert!(rate > 0.0, "schedule rate must be positive");
        Self {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When event `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period.mul_f64(i as f64)
    }
}

/// Latency of an event that was due at `due` and completed at `done`,
/// in milliseconds — measured from the due time, so generator lag is
/// included.
pub fn latency_ms(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// How late the generator sent an event against its schedule, in
/// milliseconds (0 when on time or early).
pub fn lag_ms(due: Instant, sent: Instant) -> f64 {
    sent.saturating_duration_since(due).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 95.0), Some(95.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let mut rev = s.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 95.0), Some(95.0));
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 199 samples leave 9 beyond p95; 200 leave 10.
        assert_eq!(p95(&ramp(199)), None);
        assert_eq!(p95(&ramp(200)), Some(190.0));
        assert_eq!(p95(&ramp(20)), None);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(15), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        let s = Summary::of(&ramp(100)).expect("non-empty");
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        let t0 = Instant::now();
        let due = t0 + Duration::from_millis(100);
        let sent = due + Duration::from_millis(30); // generator ran late
        let done = sent + Duration::from_millis(5);
        assert!((latency_ms(due, done) - 35.0).abs() < 1e-6);
        assert!((lag_ms(due, sent) - 30.0).abs() < 1e-6);
        // Early sends and completions before the due time clamp to 0.
        assert_eq!(lag_ms(due, t0), 0.0);
        assert_eq!(latency_ms(due, t0), 0.0);
    }

    #[test]
    fn schedule_does_not_slow_when_the_system_does() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 20.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(20) - t0, Duration::from_secs(1));
        // Lag of event i is measured against its own due time only.
        let late = s.due(3) + Duration::from_millis(120);
        assert!((lag_ms(s.due(3), late) - 120.0).abs() < 1e-6);
        assert!((lag_ms(s.due(5), late) - 20.0).abs() < 1e-6);
    }
}
