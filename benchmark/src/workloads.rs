//! Inputs, measured cells, and the two loops: a closed loop that steps
//! cells round-robin, and the open-loop schedule of the Fig. 5 robot.

use crate::alloc;
use crate::gauge::Gauge;
use crate::layers::{self, Totals, Traced};
use crate::stats::{self, Fingerprint};
use probzelus::core::infer::{Infer, Method};
use probzelus::core::model::Model;
use probzelus::core::Value;
use probzelus::lang::{compile_source_opt, ExecBackend, Instance, MufEngine, MufValue, Options};
use probzelus::models::{generate_kalman, Kalman, KalmanOracle};
use probzelus::robot::{GpsAccTracker, RobotPhysics, TrackerInput};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Particles per engine, in every cell and in `robot.zl`'s `infer 100`.
pub const PARTICLES: usize = 100;
/// The engines the closed-loop workloads compare.
pub const METHODS: [Method; 3] = [
    Method::ParticleFilter,
    Method::BoundedDs,
    Method::StreamingDs,
];
/// Length of the generated input streams; longer runs cycle through them.
const DATA_LEN: usize = 1 << 16;
/// The GPS fixes every tenth tick, as in the repository's Fig. 5 drivers
/// (`examples/dsl_robot.rs`, `examples/robot.rs`, `robot::run_mission`).
const GPS_EVERY: usize = 10;
/// The open-loop command schedule of the tracker's own test
/// (`robot::tests::tracker_follows_true_position`): +0.5 for 150 ticks,
/// then -0.5 for 150, repeated.
const CMD_HOLD: usize = 150;
const CMD: f64 = 0.5;
/// Ticks per cell left out of the timing (first-tick lowering, cold caches).
const WARMUP: usize = 10;
/// Target length of one round-robin slice of a cell.
const CHUNK: Duration = Duration::from_millis(20);
/// Closed robot-loop ticks (about 60 ms) between two gauge readings.
const GAUGE_TICKS: usize = 20;
/// Ticks per window of a robot loop's windowed tail.
pub const TAIL_WINDOW: usize = 1000;
/// No run measures past this, whatever else it still waits for.
pub const HARD_CAP: Duration = Duration::from_secs(140);
/// The Fig. 5 robot's target position.
const TARGET: f64 = 4.0;

/// Which twin a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Kalman / `hmm.zl:hmm`.
    Hmm,
    /// GpsAccTracker / `robot.zl:gps_acc_tracker`.
    Robot,
}

impl Family {
    /// Short name used in cell names.
    pub fn name(self) -> &'static str {
        match self {
            Family::Hmm => "hmm",
            Family::Robot => "robot",
        }
    }
}

/// The inputs every cell of a run reads, made from the workload seed.
pub struct Data {
    hmm: Rc<[f64]>,
    hmm_values: Rc<[Value]>,
    robot: Rc<[TrackerInput]>,
    robot_values: Rc<[Value]>,
    robot_truth: Rc<[f64]>,
}

/// Derives an independent seed for one input stream (one SplitMix64
/// step).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z =
        (seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `(a_obs, has_gps, p_obs, cmd)` tuple `robot.zl` takes, as nested
/// pairs.
pub fn robot_value(a_obs: f64, gps: Option<f64>, cmd: f64) -> Value {
    Value::pair(
        Value::Float(a_obs),
        Value::pair(
            Value::Bool(gps.is_some()),
            Value::pair(Value::Float(gps.unwrap_or(0.0)), Value::Float(cmd)),
        ),
    )
}

impl Data {
    /// Kalman data from `generate_kalman`, and robot sensors from
    /// seeded `RobotPhysics` driven by a fixed schedule of held commands,
    /// so the true position is known.
    pub fn new(seed: u64) -> Data {
        let hmm = generate_kalman(mix(seed, 1), DATA_LEN).obs;
        let mut physics = RobotPhysics::new(mix(seed, 2), GPS_EVERY);
        let mut robot = Vec::with_capacity(DATA_LEN);
        let mut robot_truth = Vec::with_capacity(DATA_LEN);
        for t in 0..DATA_LEN {
            let cmd = if (t / CMD_HOLD).is_multiple_of(2) {
                CMD
            } else {
                -CMD
            };
            let s = physics.step(cmd);
            robot.push(TrackerInput {
                a_obs: s.a_obs,
                gps: s.gps,
                cmd,
            });
            robot_truth.push(physics.position());
        }
        Data {
            hmm_values: hmm.iter().map(|&y| Value::Float(y)).collect(),
            hmm: hmm.into(),
            robot_values: robot
                .iter()
                .map(|i| robot_value(i.a_obs, i.gps, i.cmd))
                .collect(),
            robot: robot.into(),
            robot_truth: robot_truth.into(),
        }
    }
}

/// One engine step, as the benchmark loop sees it.
struct StepOut {
    mean: Result<f64, String>,
    ns: u64,
    allocs: u64,
}

fn timed_step<P, E: ToString>(
    f: impl FnOnce() -> Result<P, E>,
    mean: impl Fn(&P) -> f64,
) -> StepOut {
    let a0 = alloc::count();
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let allocs = alloc::count() - a0;
    StepOut {
        mean: r.as_ref().map(mean).map_err(E::to_string),
        ns,
        allocs,
    }
}

/// Engine-side statistics, read between ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Effective sample size at the last step.
    pub ess: f64,
    /// Cumulative particle clones.
    pub clones: u64,
    /// Cumulative clones avoided by the clone-minimal resampler.
    pub clones_avoided: u64,
    /// Live graph bytes over all particles.
    pub live_bytes: usize,
}

trait Engine {
    fn step(&mut self, t: usize) -> StepOut;
    fn probe(&self) -> Probe;
    /// Graph slab capacity over all particles (native engines only).
    fn capacity(&self) -> usize {
        0
    }
    /// Whether the engine runs as the user asked: for the DSL, on the tape.
    fn tape_ok(&self) -> bool {
        true
    }
}

struct Native<M: Model> {
    infer: Infer<M>,
    inputs: Rc<[M::Input]>,
}

impl<M: Model> Engine for Native<M> {
    fn step(&mut self, t: usize) -> StepOut {
        let y = &self.inputs[t % self.inputs.len()];
        timed_step(|| self.infer.step(y), |p| p.mean_float())
    }

    fn probe(&self) -> Probe {
        let r = self.infer.resample_stats();
        Probe {
            ess: self.infer.last_ess(),
            clones: r.clones,
            clones_avoided: r.clones_avoided,
            live_bytes: self.infer.memory().live_bytes,
        }
    }

    fn capacity(&self) -> usize {
        self.infer.graph_stats().capacity
    }
}

struct Dsl {
    engine: MufEngine,
    inputs: Rc<[Value]>,
}

impl Engine for Dsl {
    fn step(&mut self, t: usize) -> StepOut {
        let y = &self.inputs[t % self.inputs.len()];
        timed_step(|| self.engine.step(y), |p| p.mean_float())
    }

    fn probe(&self) -> Probe {
        let r = self.engine.resample_stats();
        Probe {
            ess: self.engine.last_ess(),
            clones: r.clones,
            clones_avoided: r.clones_avoided,
            live_bytes: self.engine.memory().live_bytes,
        }
    }

    fn tape_ok(&self) -> bool {
        self.engine.tape_status() == Some(Ok(()))
    }
}

/// What a cell's posterior mean is compared with on every tick.
enum Reference {
    /// The exact Kalman filter over the same observations.
    Oracle { ys: Rc<[f64]>, oracle: KalmanOracle },
    /// The simulated true position.
    Truth(Rc<[f64]>),
}

impl Reference {
    fn next(&mut self, t: usize) -> f64 {
        match self {
            Reference::Oracle { ys, oracle } => oracle.step(ys[t % ys.len()]).0,
            Reference::Truth(xs) => xs[t % xs.len()],
        }
    }
}

/// Whether an exact engine's mean agrees with the oracle: 1e-9 relative,
/// with 1e-3 as the smallest scale so a mean near zero is not held to
/// an absolute 1e-18.
pub fn matches_oracle(mean: f64, oracle: f64) -> bool {
    (mean - oracle).abs() <= 1e-9 * oracle.abs().max(1e-3)
}

/// Failures and attempts, as the result line reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ticks attempted.
    pub attempted: u64,
    /// Ticks that errored or failed a check.
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// One measured engine: a (model, method) pair with its own timing
/// samples and correctness record.
pub struct Cell {
    /// `{family}/{method}`.
    pub name: String,
    /// The twin it runs.
    pub family: Family,
    /// Its inference method.
    pub method: Method,
    engine: Box<dyn Engine>,
    reference: Reference,
    /// Held to the oracle on every tick (hmm under SDS).
    pub exact: bool,
    /// Ticks in the fingerprinted, error-measured prefix.
    prefix: usize,
    /// Ticks attempted.
    pub ticks: usize,
    /// Ticks that errored, were not finite, or missed the oracle.
    pub failed: u64,
    /// Oracle misses among them.
    pub oracle_misses: u64,
    /// Posterior means of the prefix, bit for bit.
    pub fingerprint: Fingerprint,
    sq_err: f64,
    /// Steady-state step times (ns, scaled to the nominal host): a uniform
    /// subsample, one tick in `stride`, in a buffer attached after set-up
    /// (see [`Cell::attach`]).
    samples: Vec<u32>,
    len: usize,
    stride: u64,
    skip: u64,
    /// Ticks per round-robin slice.
    chunk: usize,
    warm_min_ns: u64,
    /// The gauge's scale factor for the current slice.
    scale: f64,
    /// Steady-state totals.
    pub steady: Steady,
    traced: bool,
}

/// Steady-state sums of one cell (after warm-up).
#[derive(Debug, Clone, Copy, Default)]
pub struct Steady {
    /// Ticks.
    pub ticks: u64,
    /// Nanoseconds in the engine's step.
    pub step_ns: u64,
    /// The same, scaled to the nominal host.
    pub scaled_ns: f64,
    /// Allocations in the engine's step (traced runs only).
    pub allocs: u64,
    /// The adapters' totals (traced native cells only).
    pub layers: Totals,
    /// Sum of ESS / N (traced cells only).
    pub ess_share_sum: f64,
    /// Peak live graph bytes (traced cells only).
    pub live_peak: usize,
}

impl Cell {
    fn new(
        family: Family,
        method: Method,
        engine: Box<dyn Engine>,
        data: &Data,
        prefix: usize,
        traced: bool,
    ) -> Cell {
        let reference = match family {
            Family::Hmm => Reference::Oracle {
                ys: data.hmm.clone(),
                oracle: KalmanOracle::new(),
            },
            Family::Robot => Reference::Truth(data.robot_truth.clone()),
        };
        Cell {
            name: format!("{}/{}", family.name(), method.label()),
            family,
            method,
            engine,
            reference,
            exact: family == Family::Hmm && method == Method::StreamingDs,
            prefix,
            ticks: 0,
            failed: 0,
            oracle_misses: 0,
            fingerprint: Fingerprint::default(),
            sq_err: 0.0,
            samples: Vec::new(),
            len: 0,
            stride: 1,
            skip: 0,
            chunk: 1,
            warm_min_ns: u64::MAX,
            scale: 1.0,
            steady: Steady::default(),
            traced,
        }
    }

    /// A native-model cell; `traced` wraps the model in the adapters.
    pub fn native(
        family: Family,
        method: Method,
        data: &Data,
        seed: u64,
        prefix: usize,
        traced: bool,
    ) -> Cell {
        fn boxed<M: Model + 'static>(
            method: Method,
            model: M,
            inputs: Rc<[M::Input]>,
            seed: u64,
        ) -> Box<dyn Engine> {
            Box::new(Native {
                infer: Infer::with_seed(method, PARTICLES, model, seed),
                inputs,
            })
        }
        let engine = match (family, traced) {
            (Family::Hmm, false) => boxed(method, Kalman::default(), data.hmm.clone(), seed),
            (Family::Hmm, true) => boxed(method, Traced(Kalman::default()), data.hmm.clone(), seed),
            (Family::Robot, false) => {
                boxed(method, GpsAccTracker::default(), data.robot.clone(), seed)
            }
            (Family::Robot, true) => boxed(
                method,
                Traced(GpsAccTracker::default()),
                data.robot.clone(),
                seed,
            ),
        };
        Cell::new(family, method, engine, data, prefix, traced)
    }

    /// A DSL twin: reads and compiles the source with the optimizing
    /// pipeline, then runs the node under `infer_node` on the tape.
    ///
    /// # Errors
    ///
    /// An unreadable source or a compile error.
    pub fn dsl(
        family: Family,
        method: Method,
        data: &Data,
        seed: u64,
        prefix: usize,
        traced: bool,
    ) -> Result<Cell, String> {
        let (file, node, inputs) = match family {
            Family::Hmm => ("hmm.zl", "hmm", data.hmm_values.clone()),
            Family::Robot => ("robot.zl", "gps_acc_tracker", data.robot_values.clone()),
        };
        let src = read_source(file)?;
        let compiled = compile_source_opt(&src).map_err(|e| format!("{file}: {e}"))?;
        let engine = compiled
            .infer_node(node, PARTICLES, tape_options(method, seed))
            .map_err(|e| format!("{file}:{node}: {e}"))?;
        let engine = Box::new(Dsl { engine, inputs });
        Ok(Cell::new(family, method, engine, data, prefix, traced))
    }

    /// Steps once and applies the per-tick checks.
    pub fn tick(&mut self) {
        alloc::set_counting(self.traced);
        let t = self.ticks;
        self.ticks += 1;
        let out = self.engine.step(t);
        let reference = self.reference.next(t);
        let mean = out.mean.unwrap_or(f64::NAN);
        let mut ok = mean.is_finite();
        if ok && self.exact && !matches_oracle(mean, reference) {
            self.oracle_misses += 1;
            ok = false;
        }
        if !ok {
            self.failed += 1;
        }
        if t < self.prefix {
            self.fingerprint.push(mean);
            self.sq_err += (mean - reference).powi(2);
        }
        let layers = if self.traced {
            layers::take()
        } else {
            Totals::default()
        };
        if t < WARMUP {
            if t > 0 {
                self.warm_min_ns = self.warm_min_ns.min(out.ns);
            }
            return;
        }
        let scaled = out.ns as f64 * self.scale;
        self.record(scaled as u32);
        let s = &mut self.steady;
        s.ticks += 1;
        s.step_ns += out.ns;
        s.scaled_ns += scaled;
        s.allocs += out.allocs;
        if self.traced {
            s.layers += layers;
            let p = self.engine.probe();
            s.ess_share_sum += p.ess / PARTICLES as f64;
            s.live_peak = s.live_peak.max(p.live_bytes);
        }
    }

    /// Gives the cell its sample buffer, allocated and touched by the
    /// caller outside the timed set-up and before the memory baseline.
    pub fn attach(&mut self, buffer: Vec<u32>) {
        self.samples = buffer;
        self.len = 0;
    }

    /// Keeps one steady-state step time in `stride`. When the buffer is
    /// full, every other sample is dropped and the stride doubles, so the
    /// buffer always holds a uniform subsample of the whole run and the
    /// cell never stops stepping. Without a buffer nothing is kept.
    fn record(&mut self, ns: u32) {
        if self.samples.is_empty() {
            return;
        }
        self.skip += 1;
        if self.skip < self.stride {
            return;
        }
        self.skip = 0;
        if self.len == self.samples.len() {
            for i in 0..self.len / 2 {
                self.samples[i] = self.samples[2 * i];
            }
            self.len /= 2;
            self.stride *= 2;
        }
        self.samples[self.len] = ns;
        self.len += 1;
    }

    /// Runs one round-robin slice.
    fn slice(&mut self) {
        for _ in 0..self.chunk {
            self.tick();
        }
    }

    /// Steady-state ticks per second of step time, on the nominal host.
    pub fn ticks_per_s(&self) -> f64 {
        self.steady.ticks as f64 * 1e9 / self.steady.scaled_ns.max(1.0)
    }

    /// The same, as measured.
    pub fn raw_ticks_per_s(&self) -> f64 {
        self.steady.ticks as f64 * 1e9 / self.steady.step_ns.max(1) as f64
    }

    /// Steady-state step times in milliseconds on the nominal host,
    /// ascending.
    pub fn step_ms(&self) -> Vec<f64> {
        stats::sorted(
            self.samples[..self.len]
                .iter()
                .map(|&ns| f64::from(ns) / 1e6)
                .collect(),
        )
    }

    /// RMS error of the prefix's posterior means against the reference.
    pub fn rmse(&self) -> f64 {
        (self.sq_err / self.ticks.min(self.prefix).max(1) as f64).sqrt()
    }

    /// Engine statistics now.
    pub fn probe(&self) -> Probe {
        self.engine.probe()
    }

    /// Graph slab capacity now.
    pub fn capacity(&self) -> usize {
        self.engine.capacity()
    }

    /// Applies the end-of-run checks against the fingerprint recorded for
    /// this cell, if any, and returns the cell's tally. A cell that fails
    /// one has every attempted tick counted as failed, since none of its
    /// output can be trusted.
    pub fn finish(&mut self, recorded: Option<Fingerprint>) -> Tally {
        let short = self.ticks < self.prefix;
        let drifted = recorded.is_some_and(|r| r != self.fingerprint);
        if short || drifted || !self.engine.tape_ok() {
            self.failed = self.ticks.max(self.prefix) as u64;
        }
        Tally {
            attempted: self.ticks.max(self.prefix) as u64,
            failed: self.failed,
        }
    }

    /// Whether the engine ran as asked (DSL cells: on the tape).
    pub fn tape_ok(&self) -> bool {
        self.engine.tape_ok()
    }
}

/// The `Options` of every DSL engine: the tape backend, all else default.
pub fn tape_options(method: Method, seed: u64) -> Options {
    Options {
        method,
        seed,
        backend: ExecBackend::Tape,
    }
}

/// Reads one of the repository's ProbZelus sources.
pub fn read_source(file: &str) -> Result<String, String> {
    let path = format!("{}/../examples/zelus/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
}

/// Builds cells with `build` `reps` times, each time stepping every cell
/// once; returns the last set and the median set-up time in seconds,
/// each repetition scaled by a gauge reading taken just before it. Each
/// set is dropped before the next is built, so only one is ever resident.
///
/// # Errors
///
/// The first error `build` returns.
pub fn set_up(
    reps: usize,
    gauge: &mut Gauge,
    mut build: impl FnMut() -> Result<Vec<Cell>, String>,
) -> Result<(Vec<Cell>, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut cells = Vec::new();
    for _ in 0..reps {
        drop(std::mem::take(&mut cells));
        let scale = gauge.scale();
        let t0 = Instant::now();
        cells = build()?;
        for c in &mut cells {
            c.tick();
        }
        times.push(t0.elapsed().as_secs_f64() * scale);
    }
    Ok((cells, stats::median(&times)))
}

/// Closed loop: every cell warms up, then cells take turns stepping
/// slices of about [`CHUNK`] until `budget` has passed and each cell has
/// run its prefix. Interleaving spreads any disturbance from the rest of
/// the machine over every cell alike, and the gauge is read before every
/// round. Returns the median gauge step time (ns).
pub fn run_closed(cells: &mut [Cell], gauge: &mut Gauge, budget: Duration) -> f64 {
    let start = Instant::now();
    let mut readings = Vec::new();
    for c in cells.iter_mut() {
        while c.ticks < WARMUP {
            c.tick();
        }
        let per_tick = c.warm_min_ns.max(1);
        c.chunk = (CHUNK.as_nanos() as u64 / per_tick).clamp(1, 100_000) as usize;
    }
    loop {
        let ns = gauge.step_ns();
        readings.push(ns);
        for c in cells.iter_mut() {
            c.scale = crate::gauge::NOMINAL_NS / ns;
            c.slice();
        }
        let elapsed = start.elapsed();
        let done = cells.iter().all(|c| c.ticks >= c.prefix);
        if elapsed >= HARD_CAP || (elapsed >= budget && done) {
            break;
        }
    }
    stats::median(&readings)
}

/// The Fig. 5 program: `robot.zl:robot` instantiated with the optimizing
/// pipeline on the tape, stepped against the simulated physics with its
/// command fed back.
pub struct RobotLoop {
    instance: Instance,
    physics: RobotPhysics,
    cmd: f64,
    /// Ticks in the fingerprinted prefix.
    prefix: usize,
    /// Ticks attempted.
    pub ticks: usize,
    /// Ticks that errored or returned a non-finite output.
    pub failed: u64,
    /// Commands and confidences of the prefix, bit for bit.
    pub fingerprint: Fingerprint,
    sq_err: f64,
}

/// Timings of a [`RobotLoop`] run (steady state only).
#[derive(Debug, Clone, Default)]
pub struct LoopTimes {
    /// Completion time after each tick's due time, ms, ascending (scaled
    /// to the nominal host when the run reads the gauge).
    pub latency: Vec<f64>,
    /// Step start after each tick's due time, ms, ascending.
    pub start_late: Vec<f64>,
    /// `Instance::step` durations, ms, ascending (scaled likewise).
    pub step: Vec<f64>,
    /// Allocations inside `Instance::step` (traced runs only).
    pub allocs: u64,
    /// Share of the wall time spent stepping.
    pub busy_share: f64,
    /// Ticks whose latency exceeded the period (open loop only).
    pub misses: usize,
    /// The latency's [`stats::windowed_tail`] over [`TAIL_WINDOW`]-tick
    /// windows, and the number of windows.
    pub latency_tail: (stats::Pct, usize),
    /// Median gauge step (ns), when the run read the gauge.
    pub gauge_ns: Option<f64>,
}

impl LoopTimes {
    /// Empty timings with room for `ticks` steady ticks, touched up front
    /// so that the benchmark's memory does not grow with the run.
    pub fn with_capacity(ticks: usize) -> LoopTimes {
        let touched = || {
            let mut v = vec![0.0; ticks];
            v.clear();
            v
        };
        LoopTimes {
            latency: touched(),
            start_late: touched(),
            step: touched(),
            ..LoopTimes::default()
        }
    }
}

impl RobotLoop {
    /// Reads and compiles `robot.zl`, instantiates `robot`, and takes the
    /// first tick.
    ///
    /// # Errors
    ///
    /// An unreadable source or a compile error.
    pub fn new(seed: u64, prefix: usize) -> Result<RobotLoop, String> {
        let src = read_source("robot.zl")?;
        let compiled = compile_source_opt(&src).map_err(|e| format!("robot.zl: {e}"))?;
        let instance = compiled
            .instantiate("robot", tape_options(Method::StreamingDs, seed))
            .map_err(|e| format!("robot.zl:robot: {e}"))?;
        let mut bot = RobotLoop {
            instance,
            physics: RobotPhysics::new(mix(seed, 4), GPS_EVERY),
            cmd: 0.0,
            prefix,
            ticks: 0,
            failed: 0,
            fingerprint: Fingerprint::default(),
            sq_err: 0.0,
        };
        bot.tick(|| {});
        Ok(bot)
    }

    /// Senses, waits via `wait`, steps, and checks; returns the step's
    /// start and end instants and its allocation count.
    fn tick(&mut self, wait: impl FnOnce()) -> (Instant, Instant, u64) {
        let t = self.ticks;
        self.ticks += 1;
        let s = self.physics.step(self.cmd);
        let input = robot_value(s.a_obs, s.gps, self.cmd);
        wait();
        let a0 = alloc::count();
        let begin = Instant::now();
        let out = self.instance.step(input);
        let end = Instant::now();
        let allocs = alloc::count() - a0;
        let (cmd, conf) = match out {
            Ok(MufValue::Tuple(parts)) if parts.len() == 2 => {
                (float_of(&parts[0]), float_of(&parts[1]))
            }
            _ => (f64::NAN, f64::NAN),
        };
        if cmd.is_finite() && conf.is_finite() {
            self.cmd = cmd;
        } else {
            self.failed += 1;
        }
        if t < self.prefix {
            self.fingerprint.push(cmd);
            self.fingerprint.push(conf);
            self.sq_err += (self.physics.position() - TARGET).powi(2);
        }
        (begin, end, allocs)
    }

    /// Steps for `budget` and at least `min_ticks` ticks (and the prefix),
    /// recording into `times`. With a `period`, ticks are due on that
    /// schedule and timed from their due time: a late tick starts as soon
    /// as the previous one ends, an early one waits. Without one, the loop
    /// is closed: each tick starts when the previous one ends, and its
    /// latency is its step time. A closed loop may read `gauge` every
    /// [`GAUGE_TICKS`] ticks and scale its times to the nominal host.
    pub fn run(
        &mut self,
        period: Option<Duration>,
        mut gauge: Option<&mut Gauge>,
        budget: Duration,
        min_ticks: usize,
        mut times: LoopTimes,
    ) -> LoopTimes {
        assert!(
            period.is_none() || gauge.is_none(),
            "the gauge would delay scheduled ticks"
        );
        let start = Instant::now();
        let mut busy = Duration::ZERO;
        let mut scale = 1.0;
        let mut readings = Vec::new();
        let min_ticks = min_ticks.max(self.prefix);
        for i in 0u32.. {
            let elapsed = start.elapsed();
            if elapsed >= HARD_CAP || (elapsed >= budget && self.ticks >= min_ticks) {
                break;
            }
            if let Some(g) = gauge.as_deref_mut() {
                if (i as usize).is_multiple_of(GAUGE_TICKS) {
                    let ns = g.step_ns();
                    readings.push(ns);
                    scale = crate::gauge::NOMINAL_NS / ns;
                }
            }
            let due = period.map(|p| start + p * i);
            let (begin, end, allocs) = self.tick(|| due.into_iter().for_each(wait_until));
            if self.ticks <= WARMUP {
                continue;
            }
            let due = due.unwrap_or(begin);
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            times.latency.push(ms(end - due) * scale);
            times
                .start_late
                .push(ms(begin.saturating_duration_since(due)));
            times.step.push(ms(end - begin) * scale);
            busy += end - begin;
            times.allocs += allocs;
            if period.is_some_and(|p| end - due > p) {
                times.misses += 1;
            }
        }
        times.busy_share = busy.as_secs_f64() / start.elapsed().as_secs_f64();
        times.latency_tail = stats::windowed_tail(&times.latency, TAIL_WINDOW);
        times.gauge_ns = (!readings.is_empty()).then(|| stats::median(&readings));
        for v in [&mut times.latency, &mut times.start_late, &mut times.step] {
            v.sort_unstable_by(f64::total_cmp);
        }
        times
    }

    /// RMS distance of the true position from the target over the prefix.
    pub fn rmse(&self) -> f64 {
        (self.sq_err / self.ticks.min(self.prefix).max(1) as f64).sqrt()
    }

    /// Applies the end-of-run checks (prefix length, fingerprint).
    pub fn finish(&mut self, recorded: Option<Fingerprint>) -> Tally {
        let short = self.ticks < self.prefix;
        if short || recorded.is_some_and(|r| r != self.fingerprint) {
            self.failed = self.ticks.max(self.prefix) as u64;
        }
        Tally {
            attempted: self.ticks.max(self.prefix) as u64,
            failed: self.failed,
        }
    }
}

/// Spins until `due`. Sleeping instead lets the virtual machine's vCPU
/// be descheduled, and waking it up delays the tick and cools its caches.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn float_of(v: &MufValue) -> f64 {
    v.as_core()
        .ok()
        .and_then(|v| v.as_float().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hmm_cell(data: &Data, method: Method) -> Cell {
        Cell::native(Family::Hmm, method, data, 3, 50, false)
    }

    #[test]
    fn a_one_ulp_fingerprint_drift_fails_the_cell() {
        let data = Data::new(7);
        // The same stream, stepped directly.
        let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, Kalman::default(), 3);
        let means: Vec<f64> = data.hmm[..50]
            .iter()
            .map(|y| engine.step(y).unwrap().mean_float())
            .collect();
        let exact = means.iter().fold(Fingerprint::default(), |mut fp, &m| {
            fp.push(m);
            fp
        });
        let mut drifted = Fingerprint::default();
        for (i, &m) in means.iter().enumerate() {
            drifted.push(if i == 17 {
                f64::from_bits(m.to_bits() + 1)
            } else {
                m
            });
        }
        for (recorded, failed) in [(exact, 0), (drifted, 60)] {
            let mut cell = hmm_cell(&data, Method::ParticleFilter);
            for _ in 0..60 {
                cell.tick();
            }
            let tally = cell.finish(Some(recorded));
            assert_eq!(
                tally,
                Tally {
                    attempted: 60,
                    failed
                }
            );
        }
    }

    #[test]
    fn a_full_sample_buffer_keeps_a_uniform_subsample() {
        let data = Data::new(7);
        let mut cell = hmm_cell(&data, Method::ParticleFilter);
        cell.record(1);
        assert_eq!(cell.len, 0, "no buffer, nothing kept");
        cell.attach(vec![u32::MAX; 8]);
        for ns in 0..40 {
            cell.record(ns);
        }
        // 40 samples through 8 slots: the stride doubles three times, and
        // every eighth sample survives, from the start of the run to its end.
        assert_eq!(cell.stride, 8);
        assert_eq!(&cell.samples[..cell.len], &[0, 8, 16, 24, 32]);
    }

    #[test]
    fn a_missed_oracle_check_is_a_failure() {
        assert!(matches_oracle(10.0 + 5e-9, 10.0));
        assert!(!matches_oracle(10.0 + 2e-8, 10.0));
        let data = Data::new(7);
        let mut sds = hmm_cell(&data, Method::StreamingDs);
        // A particle filter is not exact: held to the oracle, it misses.
        let mut pf = hmm_cell(&data, Method::ParticleFilter);
        pf.exact = true;
        for _ in 0..60 {
            sds.tick();
            pf.tick();
        }
        assert_eq!((sds.failed, sds.oracle_misses), (0, 0));
        assert_eq!((pf.failed, pf.oracle_misses), (60, 60));
        assert_eq!(
            pf.finish(None),
            Tally {
                attempted: 60,
                failed: 60
            }
        );
        assert_eq!(
            sds.finish(None),
            Tally {
                attempted: 60,
                failed: 0
            }
        );
    }
}
