//! A host-speed gauge: a fixed piece of work written here, in the
//! benchmark, so that no change to the program can move it.
//!
//! The machine the benchmark was built on is a shared virtual machine
//! whose speed drifts in phases lasting seconds to minutes: the same
//! binary's hmm/PF tick takes 23 µs in one phase and 35 µs in another.
//! A gauge step does the two kinds of work that carry the benchmark's
//! ticks, so it slows down with them and the ratio of a tick to a gauge
//! step stays put while both drift:
//! - a particle-filter step, as in a native engine tick: Gaussian draws,
//!   log-weights, `exp`, systematic resampling into a fresh vector;
//! - building, reading and dropping small reference-counted trees kept
//!   in a map, as the DSL's interpreter and tape do with their values.
//!
//! Timings are reported scaled by [`NOMINAL_NS`] over the gauge's current
//! step time, measured between round-robin slices.
//!
//! Each reading also samples the process's anonymous resident memory, so
//! that memory is sampled as often as speed.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// The gauge step time the reported timings are scaled to: about what it
/// takes on the measuring machine in its faster phases.
pub const NOMINAL_NS: f64 = 8000.0;
const PARTICLES: usize = 100;
/// Trees built per step, and how many the map keeps alive.
const TREES: usize = 10;
const KEPT: usize = 64;
/// Batches per measurement, of [`BATCH`] steps each; a measurement is
/// the median batch, so one interrupted batch does not move it.
const BATCHES: usize = 5;
const BATCH: usize = 100;

/// A bootstrap particle filter on a 1-D Gaussian random walk, observed
/// with noise, and a map of small trees. Its inputs come from its own
/// xorshift generator.
pub struct Gauge {
    x: Vec<f64>,
    w: Vec<f64>,
    rng: u64,
    truth: f64,
    trees: BTreeMap<u64, Rc<Tree>>,
    /// Keeps the results alive, so the work is not optimized out.
    sink: f64,
    /// The largest `RssAnon` sampled so far, in bytes.
    peak_anon: f64,
}

enum Tree {
    Leaf(f64),
    Node(Rc<Tree>, Rc<Tree>),
}

impl Tree {
    /// A full binary tree of the given depth.
    fn build(depth: u32, x: f64) -> Rc<Tree> {
        Rc::new(if depth == 0 {
            Tree::Leaf(x)
        } else {
            Tree::Node(
                Tree::build(depth - 1, x * 1.1),
                Tree::build(depth - 1, x + 1.0),
            )
        })
    }

    fn sum(&self) -> f64 {
        match self {
            Tree::Leaf(x) => *x,
            Tree::Node(a, b) => a.sum() + b.sum(),
        }
    }
}

impl Gauge {
    /// A gauge that has been read once, so that its map is full and its
    /// memory no longer grows: a memory baseline taken after this covers it.
    pub fn warmed() -> Gauge {
        let mut g = Gauge {
            x: vec![0.0; PARTICLES],
            w: vec![0.0; PARTICLES],
            rng: 0x9e37_79b9_7f4a_7c15,
            truth: 0.0,
            trees: BTreeMap::new(),
            sink: 0.0,
            peak_anon: 0.0,
        };
        g.step_ns();
        g
    }

    /// Samples the anonymous resident memory. File-backed pages (the
    /// program's code) are left out: how many of them are resident varies
    /// by a hundred kB from run to run with the page cache.
    pub fn sample_memory(&mut self) {
        if let Ok(bytes) = rss_anon_bytes() {
            self.peak_anon = self.peak_anon.max(bytes);
        }
    }

    /// The largest anonymous resident memory sampled so far, in bytes.
    pub fn peak_anon_bytes(&self) -> f64 {
        self.peak_anon
    }

    fn uniform(&mut self) -> f64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal draw (Box–Muller).
    fn normal(&mut self) -> f64 {
        let (a, b) = (self.uniform().max(f64::MIN_POSITIVE), self.uniform());
        (-2.0 * a.ln()).sqrt() * (std::f64::consts::TAU * b).cos()
    }

    /// One gauge step: a filter step, then the trees.
    fn step(&mut self) {
        self.filter();
        for _ in 0..TREES {
            let key = self.rng >> 48;
            let tree = Tree::build(3, self.uniform());
            self.sink += tree.sum();
            self.trees.insert(key, tree);
            if self.trees.len() > KEPT {
                self.trees.pop_first();
            }
        }
    }

    /// Propagate, weight, estimate, resample.
    fn filter(&mut self) {
        self.truth += self.normal();
        let y = self.truth + 0.5 * self.normal();
        for i in 0..PARTICLES {
            self.x[i] += self.normal();
            let d = y - self.x[i];
            self.w[i] = -2.0 * d * d;
        }
        let top = self.w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0;
        for w in &mut self.w {
            *w = (*w - top).exp();
            total += *w;
        }
        let mean = self.x.iter().zip(&self.w).map(|(x, w)| x * w).sum::<f64>() / total;
        let stride = total / PARTICLES as f64;
        let mut u = self.uniform() * stride;
        let (mut cum, mut j) = (self.w[0], 0);
        let mut next = Vec::with_capacity(PARTICLES);
        for _ in 0..PARTICLES {
            while u > cum && j + 1 < PARTICLES {
                j += 1;
                cum += self.w[j];
            }
            next.push(self.x[j]);
            u += stride;
        }
        self.x = next;
        self.sink += mean;
    }

    /// The current time of one step, in nanoseconds; samples memory too.
    pub fn step_ns(&mut self) -> f64 {
        self.sample_memory();
        let mut batches = [0.0; BATCHES];
        for b in &mut batches {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                self.step();
            }
            *b = t0.elapsed().as_nanos() as f64 / BATCH as f64;
        }
        std::hint::black_box(self.sink);
        batches.sort_by(f64::total_cmp);
        batches[BATCHES / 2]
    }

    /// The factor that scales a time measured now to the nominal host.
    pub fn scale(&mut self) -> f64 {
        NOMINAL_NS / self.step_ns()
    }
}

/// The process's `RssAnon` from `/proc/self/status`, in bytes.
///
/// # Errors
///
/// An unreadable status file or a missing field.
pub fn rss_anon_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("RssAnon:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "no RssAnon in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gauge_measures_a_positive_step_and_stays_finite() {
        let mut g = Gauge::warmed();
        assert_eq!(g.trees.len(), KEPT);
        let s = g.scale();
        assert!(s.is_finite() && s > 0.0, "scale {s}");
        assert!(g.sink.is_finite());
        assert!(g.peak_anon_bytes() > 0.0);
    }
}
