//! The `load` pseudo-layer: the benchmark's seeded generator, the
//! Poisson arrival schedule of the open loop, and its lateness
//! accounting.

/// SplitMix64. The benchmark carries its own generator so that a seed
/// replays the same op sequence whatever the repository's `rand` does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻³⁰ for
    /// the small `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent stream for one purpose (`tag`) of this seed, so
    /// adding draws to one purpose never shifts another.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        let mut r = Rng::new(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }
}

/// Send offsets, in seconds from the start of the open loop, of
/// `count` Poisson arrivals at `rate` per second: a Poisson process
/// conditioned on `count` arrivals in `[0, count / rate)`, whose times
/// are sorted independent uniforms. Fixing the count keeps the served
/// mix and the tail's rank the same in every run.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, count: usize) -> Vec<f64> {
    let span = count as f64 / rate;
    let mut at: Vec<f64> = (0..count).map(|_| rng.unit() * span).collect();
    at.sort_by(f64::total_cmp);
    at
}

/// One open-loop request as the generator saw it, in seconds from the
/// start of the loop.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub scheduled: f64,
    pub sent: f64,
    pub done: f64,
}

impl Sent {
    /// How late the generator sent the request. A sleep never returns
    /// early, but a clock read can land before the target by rounding,
    /// so this is floored at zero.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.scheduled).max(0.0) * 1e3
    }

    /// Latency as a user arriving on schedule sees it: from the
    /// scheduled send to the reply, so a stalled generator's delay
    /// lands on the requests it held back.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.scheduled) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "same seed, same stream");
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(7, 2).next_u64());
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(8, 1).next_u64());
        let mut r = Rng::new(3);
        assert!((0..1000).all(|_| r.below(5) < 5));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn poisson_schedule_replays_and_keeps_its_rate() {
        let a = poisson_schedule(&mut Rng::new(11), 50.0, 10_000);
        let b = poisson_schedule(&mut Rng::new(11), 50.0, 10_000);
        assert_eq!(a, b, "one seed, one schedule");
        assert_ne!(a, poisson_schedule(&mut Rng::new(12), 50.0, 10_000));
        assert_eq!(a.len(), 10_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(a.iter().all(|&t| (0.0..200.0).contains(&t)));
        // Arrivals per second hold the rate: each 20 s tenth gets about
        // 1000 (binomial sd 30).
        for tenth in 0..10 {
            let lo = tenth as f64 * 20.0;
            let k = a.iter().filter(|&&t| (lo..lo + 20.0).contains(&t)).count();
            assert!((k as f64 - 1000.0).abs() < 150.0, "tenth {tenth}: {k}");
        }
        // Exponential gaps: the share shorter than the mean is 1 - 1/e.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let short = gaps.iter().filter(|&&g| g < 1.0 / 50.0).count() as f64 / gaps.len() as f64;
        assert!((short - (1.0 - (-1.0f64).exp())).abs() < 0.02, "{short}");
    }

    #[test]
    fn lateness_and_latency_count_from_the_schedule() {
        let on_time = Sent { scheduled: 1.0, sent: 1.0, done: 1.004 };
        assert_eq!(on_time.late_ms(), 0.0);
        assert!((on_time.latency_ms() - 4.0).abs() < 1e-9);
        // Sent 3 ms late: the delay counts as lateness and as latency.
        let late = Sent { scheduled: 2.0, sent: 2.003, done: 2.007 };
        assert!((late.late_ms() - 3.0).abs() < 1e-9);
        assert!((late.latency_ms() - 7.0).abs() < 1e-9);
        // A clock read a hair before the target is not negative lateness.
        let early = Sent { scheduled: 3.0, sent: 2.999_999, done: 3.002 };
        assert_eq!(early.late_ms(), 0.0);
    }
}
