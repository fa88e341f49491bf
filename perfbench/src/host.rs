//! The `host` pseudo-layer: a frozen reference kernel timed in the same
//! run as the program, and the arithmetic that scales by it.
//!
//! On a shared host the machine's speed drifts between runs by more
//! than the changes worth detecting. A run that times a fixed kernel
//! beside the program can divide that drift out: scaled = raw ×
//! `ref_nominal_ms` / the run's median reference time. The kernel is a
//! BFS over a fixed pseudo-random CSR graph of about 7 MB, memory-bound
//! like the solvers, and it runs only while no program work is in
//! flight.

use crate::load::Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const REF_VERTICES: usize = 200_000;
/// Out-degree: one ring edge (so every vertex is reached) plus random
/// targets.
const REF_DEGREE: usize = 8;
const REF_SEED: u64 = 0x5EED_F00D;

/// Share of run time the reference may take.
pub const REF_SHARE: f64 = 0.06;

/// The reference graph and its BFS scratch.
pub struct RefKernel {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    seen: Vec<u32>,
    queue: Vec<u32>,
    epoch: u32,
}

impl RefKernel {
    pub fn new() -> Self {
        let mut rng = Rng::new(REF_SEED);
        let mut offsets = Vec::with_capacity(REF_VERTICES + 1);
        let mut targets = Vec::with_capacity(REF_VERTICES * REF_DEGREE);
        for v in 0..REF_VERTICES {
            offsets.push(targets.len() as u32);
            targets.push(((v + 1) % REF_VERTICES) as u32);
            for _ in 1..REF_DEGREE {
                targets.push(rng.below(REF_VERTICES as u64) as u32);
            }
        }
        offsets.push(targets.len() as u32);
        RefKernel {
            offsets,
            targets,
            seen: vec![0; REF_VERTICES],
            queue: Vec::with_capacity(REF_VERTICES),
            epoch: 0,
        }
    }

    /// One BFS from vertex 0; returns the vertices reached (all of them,
    /// by the ring).
    pub fn bfs(&mut self) -> usize {
        self.epoch += 1;
        let epoch = self.epoch;
        self.queue.clear();
        self.queue.push(0);
        self.seen[0] = epoch;
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head] as usize;
            head += 1;
            for &t in &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize] {
                if self.seen[t as usize] != epoch {
                    self.seen[t as usize] = epoch;
                    self.queue.push(t);
                }
            }
        }
        self.queue.len()
    }
}

/// The run's reference samples.
pub struct HostRef {
    kernel: RefKernel,
    samples_ms: Vec<f64>,
    spent: Duration,
}

impl HostRef {
    pub fn new() -> Self {
        let mut kernel = RefKernel::new();
        // Fault the pages in, so the first sample is no outlier.
        black_box(kernel.bfs());
        HostRef { kernel, samples_ms: Vec::new(), spent: Duration::ZERO }
    }

    /// Times one kernel run. Call only while the program is idle.
    pub fn sample(&mut self) {
        let started = Instant::now();
        let reached = black_box(self.kernel.bfs());
        let took = started.elapsed();
        assert_eq!(reached, REF_VERTICES, "the reference BFS must reach every vertex");
        self.spent += took;
        self.samples_ms.push(took.as_secs_f64() * 1e3);
    }

    /// Samples until the reference has taken [`REF_SHARE`] of `elapsed`.
    pub fn top_up(&mut self, elapsed: Duration) {
        while self.spent.as_secs_f64() < REF_SHARE * elapsed.as_secs_f64() {
            self.sample();
        }
    }

    /// Time spent in the reference so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples_ms
    }

    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }
}

/// Scaling by the host reference.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// The frozen nominal reference time (`perfbench/meta.json`).
    pub nominal_ms: f64,
    /// This run's median reference time.
    pub ref_ms: f64,
}

impl Scale {
    /// nominal / measured: below 1 on a host running slower than
    /// nominal.
    pub fn factor(&self) -> f64 {
        self.nominal_ms / self.ref_ms
    }

    /// A time as it would read on a host at nominal speed.
    pub fn time(&self, raw: f64) -> f64 {
        raw * self.factor()
    }

    /// A rate as it would read at nominal speed. A rate is work per
    /// time, so it scales by the inverse factor.
    pub fn rate(&self, raw: f64) -> f64 {
        raw / self.factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_the_host_speed() {
        // The host runs 25% slow: the reference takes 12.5 ms, not 10.
        let s = Scale { nominal_ms: 10.0, ref_ms: 12.5 };
        assert!((s.factor() - 0.8).abs() < 1e-12);
        // A 500 ms solve on the slow host reads 400 ms at nominal speed.
        assert!((s.time(500.0) - 400.0).abs() < 1e-9);
        // 8 ops/s on the slow host reads 10 ops/s.
        assert!((s.rate(8.0) - 10.0).abs() < 1e-9);
        // Scaled time × scaled rate is invariant: one op per op.
        assert!((s.time(125.0) * s.rate(8.0) - 125.0 * 8.0).abs() < 1e-9);
        // At nominal speed nothing moves.
        let nominal = Scale { nominal_ms: 10.0, ref_ms: 10.0 };
        assert_eq!(nominal.time(3.5), 3.5);
        assert_eq!(nominal.rate(3.5), 3.5);
    }

    #[test]
    fn reference_kernel_is_fixed_and_reaches_everything() {
        let mut a = RefKernel::new();
        let b = RefKernel::new();
        assert_eq!(a.targets, b.targets, "the reference graph is frozen");
        assert_eq!(a.bfs(), REF_VERTICES);
        assert_eq!(a.bfs(), REF_VERTICES, "epoch stamps reset the scratch");
    }

    #[test]
    fn top_up_holds_the_reference_share() {
        let mut host = HostRef::new();
        host.top_up(Duration::ZERO);
        assert!(host.samples().is_empty(), "nothing is owed at zero elapsed");
        host.top_up(Duration::from_millis(500));
        let spent = host.spent().as_secs_f64();
        assert!(spent >= REF_SHARE * 0.5, "{spent}");
        assert!(!host.samples().is_empty());
        assert!(host.median_ms() > 0.0);
    }
}
