//! The host's current speed, read from fixed work the benchmark owns.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by up to 1.6x over seconds to minutes, with no time stolen from the
//! process: the co-tenants slow every instruction, not the scheduler.
//! That drift moves whole runs, so medians over a run cannot remove it.
//! Instead a [`Clock`] brackets each timed stretch with [`probe`]s and
//! reports the stretch at the nominal speed, at which a probe reads
//! [`NOMINAL_S`].
//!
//! A probe times three kernels that stand for the kinds of work the
//! library does: multi-limb integer products in small heap vectors (as
//! `Rat`'s big integers do), a sort (branchy and memory-bound), and
//! ordered-map inserts of small heap values (the allocator and pointer
//! chasing). It reads their geometric mean. On a shared 2-core x86-64
//! host (2 MiB L2 per core), 1046 readings over two minutes, each beside
//! one fixed solver query and one fixed synthesis session, gave the
//! query's and the session's time an elasticity of 1.01 and 1.02 to the
//! probe (correlation 0.84 and 0.86); a float chain (correlation 0.28)
//! and an L2-sized pointer chase (elasticity 1.8) tracked them worse. The
//! kernels call no code of the library, so no change to it moves them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a probe reads at the nominal speed: its fast mode on the host
/// above, where readings fall in two modes, about 0.16 ms and 0.24 ms.
pub const NOMINAL_S: f64 = 0.16e-3;

/// Longest a rescaling clock goes without a probe. A probe costs about
/// 2 ms, so this keeps probing to about a tenth of a run.
pub const REPROBE: Duration = Duration::from_millis(20);

/// Square of a 512-bit number, truncated to 512 bits, four times over,
/// for 200 starting values. The products live on the heap on purpose, as
/// `Rat`'s big integers do.
#[allow(clippy::useless_vec)]
fn big_products() -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..200 {
        let mut limbs: Vec<u64> = (0..8).map(|i| h.rotate_left(i * 7) | 1).collect();
        for _ in 0..4 {
            let mut product = vec![0u64; 16];
            for (i, &a) in limbs.iter().enumerate() {
                let mut carry = 0u128;
                for (j, &b) in limbs.iter().enumerate() {
                    let t = u128::from(a) * u128::from(b) + u128::from(product[i + j]) + carry;
                    product[i + j] = t as u64;
                    carry = t >> 64;
                }
                product[i + 8] = carry as u64;
            }
            limbs = product[..8].to_vec();
        }
        h ^= limbs.iter().fold(0, |acc, &l| acc ^ l);
    }
    h
}

/// Sort 6000 pseudo-random words.
fn sort() -> u64 {
    let mut s = 0x9E37_79B9_7F4A_7C15_u64;
    let mut v: Vec<u64> = (0..6000)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
        .collect();
    v.sort_unstable();
    v[100]
}

/// Insert 3000 scattered keys with small heap values into an ordered map.
fn map_inserts() -> u64 {
    let mut m = BTreeMap::new();
    for i in 0..3000u64 {
        m.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), vec![i; 6]);
    }
    m.len() as u64
}

/// Seconds the second of two back-to-back runs of `kernel` takes; the
/// first brings its code and data into cache, so the reading follows the
/// host's speed and not what the timed work left in the caches.
fn time(kernel: fn() -> u64) -> f64 {
    std::hint::black_box(kernel());
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// The host's speed now: the geometric mean, in seconds, of the three
/// kernels' times.
#[must_use]
pub fn probe() -> f64 {
    let kernels: [fn() -> u64; 3] = [big_products, sort, map_inserts];
    let log_sum: f64 = kernels.iter().map(|&k| time(k).ln()).sum();
    (log_sum / kernels.len() as f64).exp()
}

/// Times consecutive stretches of work. A rescaling clock probes the
/// host's speed at most every [`REPROBE`] and reports each stretch at the
/// nominal speed, using the mean of the probes on either side of it;
/// probe time is excluded. A plain clock reports wall time.
#[derive(Debug)]
pub struct Clock {
    rescale: bool,
    mark: Instant,
    probed_at: Instant,
    probe_s: f64,
    probes: Vec<f64>,
}

impl Clock {
    /// Start timing now; a rescaling clock probes first.
    #[must_use]
    pub fn start(rescale: bool) -> Self {
        let probe_s = if rescale { probe() } else { NOMINAL_S };
        let now = Instant::now();
        let probes = if rescale { vec![probe_s] } else { Vec::new() };
        Clock { rescale, mark: now, probed_at: now, probe_s, probes }
    }

    /// Seconds since the last lap, or since the start: wall time for a
    /// plain clock, time at the nominal speed for a rescaling one.
    pub fn lap(&mut self) -> f64 {
        let elapsed = self.mark.elapsed().as_secs_f64();
        if !self.rescale {
            self.mark = Instant::now();
            return elapsed;
        }
        let before = self.probe_s;
        if self.probed_at.elapsed() >= REPROBE {
            self.probe_s = probe();
            self.probes.push(self.probe_s);
            self.probed_at = Instant::now();
        }
        self.mark = Instant::now();
        elapsed * NOMINAL_S * 2.0 / (before + self.probe_s)
    }

    /// The probes taken so far, in seconds.
    #[must_use]
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_plain_clock_reads_wall_time() {
        let mut c = Clock::start(false);
        std::thread::sleep(Duration::from_millis(5));
        let s = c.lap();
        assert!((0.005..1.0).contains(&s), "{s}");
        assert!(c.probes().is_empty());
    }

    #[test]
    fn a_rescaling_clock_probes_and_excludes_probe_time() {
        let mut c = Clock::start(true);
        assert_eq!(c.probes().len(), 1);
        std::thread::sleep(REPROBE);
        let first = c.lap();
        assert!(first > 0.0 && first.is_finite());
        assert_eq!(c.probes().len(), 2);
        // The second probe ran before the lap's new mark, so an
        // immediate lap covers only the time since, not the probe.
        let second = c.lap();
        assert!(second < 1e-3, "{second}");
    }
}
