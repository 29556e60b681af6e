//! The repository benchmark: end-to-end metrics of one workload per run,
//! or (with `--trace 1`) the per-layer metrics of every workload.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload native|dsl|robot-loop --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable rows go to standard output; the last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. See
//! `benchmark/README.md` for what each workload and metric is for.

mod alloc;
mod gauge;
mod layers;
mod stats;
mod workloads;

use gauge::Gauge;
use probzelus::lang::{
    check_source, compile_source, compile_source_opt, optimize_source, OptConfig,
};
use stats::{percentile, tail, Fingerprint, Pct};
use std::time::{Duration, Instant};
use workloads::{
    read_source, robot_value, set_up, tape_options, Cell, Data, Family, LoopTimes, RobotLoop,
    Tally, METHODS, PARTICLES,
};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed whose posterior fingerprints are recorded in
/// `benchmark/fingerprints.txt`.
const DEFAULT_SEED: u64 = 1;
const RECORDED: &str = include_str!("../fingerprints.txt");
/// Ticks per cell that are fingerprinted and scored against the reference.
const PREFIX_NATIVE: usize = 10_000;
const PREFIX_DSL: usize = 1000;
const PREFIX_LOOP: usize = 300;
/// The traced run compares traced with untraced bits over a shorter
/// prefix; the untraced runs check the recorded fingerprints.
const TRACE_PREFIX_SHARE: usize = 5;
/// Steady-state step times each cell holds; past that it keeps a
/// uniform subsample.
const SAMPLE_CAP: usize = 1 << 16;
/// Steady ticks a robot loop has room for without growing its buffers:
/// a 30 s run at ten times the speed of the measuring machine.
const LOOP_CAP: usize = 1 << 16;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS_NATIVE: usize = 51;
const SETUP_REPS_DSL: usize = 9;
/// The period of the traced run's scheduled robot loop: about two and a
/// half times the robot node's median tick, so that the machine's slower
/// phases do not saturate it.
const PERIOD: Duration = Duration::from_millis(12);
/// Ticks of the scheduled robot loop: 1000 steady ones after warm-up, so
/// that its p99 has ten samples beyond it.
const SCHEDULED_TICKS: usize = 1010;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Native,
    Dsl,
    RobotLoop,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "native" => Some(Workload::Native),
            "dsl" => Some(Workload::Dsl),
            "robot-loop" => Some(Workload::RobotLoop),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: ledger --workload native|dsl|robot-loop [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Named metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("  {name:<34} {value:>16.6} {unit}");
        self.0.push((name, value, unit));
    }

    fn to_json(&self, tally: Tally, correct: bool) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            body.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The fingerprint recorded for `workload`/`cell`, on the default seed
/// only. A cell with no recorded line gets a fingerprint no run produces,
/// so a forgotten entry fails instead of passing unchecked.
fn recorded(workload: &str, cell: &str, seed: u64) -> Option<Fingerprint> {
    if seed != DEFAULT_SEED {
        return None;
    }
    let found = RECORDED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[0] == workload && f[1] == cell)
        .and_then(|f| u64::from_str_radix(f[2], 16).ok());
    Some(Fingerprint(found.unwrap_or(0)))
}

/// The anonymous resident memory before the program is set up: the
/// inputs, the gauge and the benchmark's own buffers, already allocated
/// and touched.
struct Baseline(f64);

impl Baseline {
    fn now() -> Result<Baseline, String> {
        gauge::rss_anon_bytes().map(Baseline)
    }

    /// The peak of the anonymous resident memory the gauge sampled, above
    /// the baseline: what the engines and compiled programs added.
    fn peak_rss_bytes(&self, gauge: &mut Gauge) -> f64 {
        gauge.sample_memory();
        gauge.peak_anon_bytes() - self.0
    }
}

/// One pre-touched sample buffer per cell.
fn sample_buffers(cells: usize) -> Vec<Vec<u32>> {
    (0..cells).map(|_| vec![u32::MAX; SAMPLE_CAP]).collect()
}

fn attach(cells: &mut [Cell], buffers: Vec<Vec<u32>>) {
    for (c, b) in cells.iter_mut().zip(buffers) {
        c.attach(b);
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn native_cells(data: &Data, seed: u64, prefix: usize, traced: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for method in METHODS {
        for family in [Family::Hmm, Family::Robot] {
            cells.push(Cell::native(family, method, data, seed, prefix, traced));
        }
    }
    cells
}

fn dsl_cells(data: &Data, seed: u64, prefix: usize, traced: bool) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for method in METHODS {
        for family in [Family::Hmm, Family::Robot] {
            cells.push(Cell::dsl(family, method, data, seed, prefix, traced)?);
        }
    }
    Ok(cells)
}

/// One closed-loop cell's end-to-end figures.
struct CellFigures {
    tps: f64,
    p50: Pct,
    tail: Pct,
    rmse: f64,
    exact: bool,
}

/// Prints each cell's row, applies the end-of-run checks (against
/// `expect`, per cell) and returns the figures and tally.
fn close_cells(
    label: &str,
    cells: &mut [Cell],
    mut expect: impl FnMut(&Cell) -> Option<Fingerprint>,
) -> (Vec<CellFigures>, Tally) {
    let mut tally = Tally::default();
    let mut figures = Vec::new();
    for c in cells.iter_mut() {
        let expected = expect(c);
        let t = c.finish(expected);
        tally += t;
        let ms = c.step_ms();
        let f = CellFigures {
            tps: c.ticks_per_s(),
            p50: percentile(&ms, 0.5),
            tail: tail(&ms),
            rmse: c.rmse(),
            exact: c.exact,
        };
        println!(
            "{label} {:<10} ticks_per_s={:.1} 1/s (as measured {:.1})  tick {} ms  tick {} ms  \
             posterior_rmse={:.6}  oracle_misses={}  tape_ok={}  failed={}/{}  fingerprint={}",
            c.name,
            f.tps,
            c.raw_ticks_per_s(),
            f.p50,
            f.tail,
            f.rmse,
            c.oracle_misses,
            c.tape_ok(),
            t.failed,
            t.attempted,
            c.fingerprint
        );
        figures.push(f);
    }
    (figures, tally)
}

/// The end-to-end metrics of one closed-loop workload.
fn closed_metrics(m: &mut Metrics, figures: &[CellFigures], setup_s: f64, peak_rss_bytes: f64) {
    let geo = |f: &dyn Fn(&CellFigures) -> f64| {
        stats::geomean(&figures.iter().map(f).collect::<Vec<_>>())
    };
    m.put("ticks_per_s", geo(&|f| f.tps), "1/s");
    m.put("tick_p50_ms", geo(&|f| f.p50.value), "ms");
    m.put("tick_p99_ms", geo(&|f| f.tail.value), "ms");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_bytes", peak_rss_bytes, "bytes");
    // The exact cell (hmm/SDS, ~1e-15 from rounding) is held to the
    // oracle on every tick instead; in a geometric mean it would swamp
    // the approximate cells.
    let approximate: Vec<f64> = figures
        .iter()
        .filter(|f| !f.exact)
        .map(|f| f.rmse)
        .collect();
    m.put("posterior_rmse", stats::geomean(&approximate), "m");
}

/// One closed-loop workload end to end: `reps` timed set-ups of the
/// cells `build` makes, then the measured run.
fn run_closed_workload(
    label: &str,
    seed: u64,
    seconds: u64,
    reps: usize,
    m: &mut Metrics,
    build: impl Fn(&Data) -> Result<Vec<Cell>, String>,
) -> Result<Tally, String> {
    let data = Data::new(seed);
    let buffers = sample_buffers(METHODS.len() * 2);
    let mut gauge = Gauge::warmed();
    let baseline = Baseline::now()?;
    let (mut cells, setup_s) = set_up(reps, &mut gauge, || build(&data))?;
    attach(&mut cells, buffers);
    let gauge_ns = workloads::run_closed(&mut cells, &mut gauge, secs(seconds as f64));
    // Read before the percentiles are worked out, which allocate.
    let peak = baseline.peak_rss_bytes(&mut gauge);
    print_gauge(label, gauge_ns);
    let (figures, tally) = close_cells(label, &mut cells, |c| recorded(label, &c.name, seed));
    closed_metrics(m, &figures, setup_s, peak);
    Ok(tally)
}

fn print_gauge(label: &str, ns: f64) {
    println!(
        "{label} gauge step {ns:.0} ns (median; timings are scaled to {:.0} ns)",
        gauge::NOMINAL_NS
    );
}

fn run_native(seed: u64, seconds: u64, m: &mut Metrics) -> Result<Tally, String> {
    run_closed_workload("native", seed, seconds, SETUP_REPS_NATIVE, m, |data| {
        Ok(native_cells(data, seed, PREFIX_NATIVE, false))
    })
}

fn run_dsl(seed: u64, seconds: u64, m: &mut Metrics) -> Result<Tally, String> {
    run_closed_workload("dsl", seed, seconds, SETUP_REPS_DSL, m, |data| {
        dsl_cells(data, seed, PREFIX_DSL, false)
    })
}

fn print_loop(label: &str, bot: &RobotLoop, t: &LoopTimes, tally: Tally) {
    println!(
        "{label} robot latency {} ms  {} ms (median of {} windows)  start_late {} ms  step {} ms  \
         step {} ms  busy_share={:.3}  deadline_misses={}/{}  posterior_rmse={:.6}  failed={}/{}  \
         fingerprint={}",
        percentile(&t.latency, 0.5),
        t.latency_tail.0,
        t.latency_tail.1,
        tail(&t.start_late),
        percentile(&t.step, 0.5),
        tail(&t.step),
        t.busy_share,
        t.misses,
        t.latency.len(),
        bot.rmse(),
        tally.failed,
        tally.attempted,
        bot.fingerprint
    );
}

fn run_robot_loop(seed: u64, seconds: u64, m: &mut Metrics) -> Result<Tally, String> {
    let buffers = LoopTimes::with_capacity(LOOP_CAP);
    let mut gauge = Gauge::warmed();
    let baseline = Baseline::now()?;
    let mut times = Vec::with_capacity(SETUP_REPS_DSL);
    let mut bot = None;
    for _ in 0..SETUP_REPS_DSL {
        drop(bot.take());
        let scale = gauge.scale();
        let t0 = Instant::now();
        bot = Some(RobotLoop::new(seed, PREFIX_LOOP)?);
        times.push(t0.elapsed().as_secs_f64() * scale);
    }
    let mut bot = bot.expect("at least one set-up repetition");
    let t = bot.run(None, Some(&mut gauge), secs(seconds as f64), 0, buffers);
    let peak = baseline.peak_rss_bytes(&mut gauge);
    let tally = bot.finish(recorded("robot-loop", "robot", seed));
    print_loop("robot-loop", &bot, &t, tally);
    print_gauge("robot-loop", t.gauge_ns.unwrap_or(f64::NAN));
    let busy_s: f64 = t.step.iter().sum::<f64>() / 1e3;
    m.put("ticks_per_s", t.step.len() as f64 / busy_s, "1/s");
    m.put("tick_p50_ms", percentile(&t.latency, 0.5).value, "ms");
    m.put("tick_p99_ms", t.latency_tail.0.value, "ms");
    m.put("setup_s", stats::median(&times), "s");
    m.put("peak_rss_bytes", peak, "bytes");
    m.put("posterior_rmse", bot.rmse(), "m");
    Ok(tally)
}

/// Untraced and traced copies of the same cells, measured together.
struct Passes {
    plain: Vec<CellFigures>,
    traced_cells: Vec<Cell>,
    traced: Vec<CellFigures>,
    tally: Tally,
}

/// Runs `cells` untraced and a fresh traced copy side by side, in one
/// round-robin, so drift in the machine's speed reaches both alike; then
/// checks that the traced posteriors are bit-identical to the untraced.
fn plain_and_traced(
    label: &str,
    budget: Duration,
    mut build: impl FnMut(bool) -> Result<Vec<Cell>, String>,
) -> Result<Passes, String> {
    let mut gauge = Gauge::warmed();
    let (mut cells, _) = set_up(1, &mut gauge, || {
        let mut both = build(false)?;
        both.extend(build(true)?);
        Ok(both)
    })?;
    let buffers = sample_buffers(cells.len());
    attach(&mut cells, buffers);
    workloads::run_closed(&mut cells, &mut gauge, budget);
    alloc::set_counting(false);
    let mut traced_cells = cells.split_off(cells.len() / 2);
    let (plain, mut tally) = close_cells(label, &mut cells, |_| None);
    let mut untraced_bits = cells.iter().map(|c| c.fingerprint);
    let (traced, t) = close_cells(&format!("{label}+trace"), &mut traced_cells, |_| {
        untraced_bits.next()
    });
    tally += t;
    Ok(Passes {
        plain,
        traced_cells,
        traced,
        tally,
    })
}

fn overhead(plain: &[CellFigures], traced: &[CellFigures]) -> f64 {
    let ratios: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| t.p50.value / p.p50.value)
        .collect();
    stats::geomean(&ratios)
}

/// Time spent in each stage of the compile pipeline: medians over
/// repetitions, summed over the entry points that have the stage (the
/// `robot` node embeds `infer`, so it is not lowered as a whole).
fn compile_split(m: &mut Metrics, seed: u64) -> Result<(), String> {
    let entries = [
        ("hmm.zl", "hmm", true),
        ("robot.zl", "gps_acc_tracker", true),
        ("robot.zl", "robot", false),
    ];
    let first_hmm = probzelus::core::Value::Float(0.0);
    let first_robot = robot_value(0.0, None, 0.0);
    let mut sums = [0.0f64; 6];
    for (file, node, probabilistic) in entries {
        let mut reps: [Vec<f64>; 6] = Default::default();
        for _ in 0..SETUP_REPS_DSL {
            let src = read_source(file)?;
            let lap = |t0: &mut Instant| {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                *t0 = Instant::now();
                ms
            };
            let err = |e: probzelus::lang::LangError| format!("{file}:{node}: {e}");
            let mut t0 = Instant::now();
            if check_source(&src, false).has_errors() {
                return Err(format!("{file}: check_source reports errors"));
            }
            reps[0].push(lap(&mut t0));
            compile_source(&src).map_err(err)?;
            let compile_ms = lap(&mut t0);
            reps[1].push(compile_ms);
            optimize_source(&src, &OptConfig::default()).map_err(err)?;
            reps[2].push(lap(&mut t0) - compile_ms);
            let compiled = compile_source_opt(&src).map_err(err)?;
            let options = tape_options(probzelus::core::Method::StreamingDs, seed);
            let input = if file == "hmm.zl" {
                &first_hmm
            } else {
                &first_robot
            };
            let mut t0 = Instant::now();
            if probabilistic {
                compiled
                    .lower_node(node, options)
                    .map_err(err)?
                    .map_err(|e| format!("{file}:{node}: {e}"))?;
                reps[3].push(lap(&mut t0));
                let mut engine = compiled.infer_node(node, PARTICLES, options).map_err(err)?;
                reps[4].push(lap(&mut t0));
                engine.step(input).map_err(err)?;
            } else {
                let mut instance = compiled.instantiate(node, options).map_err(err)?;
                reps[4].push(lap(&mut t0));
                instance.step(input.clone()).map_err(err)?;
            }
            reps[5].push(lap(&mut t0));
        }
        for (sum, r) in sums.iter_mut().zip(&reps) {
            if !r.is_empty() {
                *sum += stats::median(r);
            }
        }
    }
    for (name, v) in [
        "check",
        "compile",
        "opt",
        "lower",
        "instantiate",
        "first_tick",
    ]
    .iter()
    .zip(sums)
    {
        m.put(format!("lang.{name}_ms"), v, "ms");
    }
    Ok(())
}

/// Static counts that repeat exactly: optimizer rewrites and the shape of
/// each twin's tape.
fn static_counts(m: &mut Metrics, seed: u64) -> Result<(), String> {
    let mut rewrites = 0;
    for (file, node, key) in [
        ("hmm.zl", "hmm", "hmm"),
        ("robot.zl", "gps_acc_tracker", "robot"),
    ] {
        let src = read_source(file)?;
        let err = |e: probzelus::lang::LangError| format!("{file}:{node}: {e}");
        let opt = optimize_source(&src, &OptConfig::default()).map_err(err)?;
        rewrites += opt.report.total();
        let tape = opt
            .compiled
            .lower_node(
                node,
                tape_options(probzelus::core::Method::StreamingDs, seed),
            )
            .map_err(err)?
            .map_err(|e| format!("{file}:{node} does not lower: {e}"))?;
        let plumbing = tape
            .ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    probzelus::lang::tape::Op::Proj { .. }
                        | probzelus::lang::tape::Op::MkTuple { .. }
                )
            })
            .count();
        m.put(format!("tape.ops.{key}"), tape.ops.len() as f64, "count");
        m.put(format!("tape.plumbing_ops.{key}"), plumbing as f64, "count");
        m.put(
            format!("tape.regs.{key}"),
            f64::from(tape.num_regs),
            "count",
        );
    }
    m.put("opt.rewrites", rewrites as f64, "count");
    Ok(())
}

/// The traced run: every workload, each untraced and then traced, and
/// the per-layer metrics read from the pair.
fn run_traced(seed: u64, seconds: u64, m: &mut Metrics) -> Result<Tally, String> {
    let budget = seconds as f64;
    let data = Data::new(seed);
    let mut tally = Tally::default();

    // native: the adapters split each tick into engine, model and context.
    let native = plain_and_traced("native", secs(budget * 0.2), |tr| {
        Ok(native_cells(
            &data,
            seed,
            PREFIX_NATIVE / TRACE_PREFIX_SHARE,
            tr,
        ))
    })?;
    tally += native.tally;
    let n_cells = &native.traced_cells;
    // Per-tick figures are averaged over cells, each cell weighing the
    // same however many ticks it managed.
    let mean = |f: &dyn Fn(&Cell, f64) -> f64| {
        n_cells
            .iter()
            .map(|c| f(c, c.steady.ticks.max(1) as f64))
            .sum::<f64>()
            / n_cells.len() as f64
    };
    let sum = |f: &dyn Fn(&Cell) -> f64| n_cells.iter().map(f).sum::<f64>();
    let n = PARTICLES as f64;
    m.put(
        "infer.self_us_per_tick",
        mean(&|c, t| (c.steady.step_ns - c.steady.layers.model.ns) as f64 / t / 1e3),
        "us",
    );
    m.put(
        "infer.clones_per_tick",
        mean(&|c, _| c.probe().clones as f64 / c.ticks as f64),
        "count",
    );
    m.put(
        "infer.clones_avoided_share",
        mean(&|c, _| {
            let p = c.probe();
            p.clones_avoided as f64 / (p.clones + p.clones_avoided).max(1) as f64
        }),
        "share",
    );
    m.put(
        "infer.ess_share",
        mean(&|c, t| c.steady.ess_share_sum / t),
        "share",
    );
    let l = |c: &Cell| c.steady.layers;
    m.put(
        "model.self_us_per_tick",
        mean(&|c, t| (l(c).model.ns - l(c).prob.ns) as f64 / t / 1e3),
        "us",
    );
    m.put(
        "prob.us_per_tick",
        mean(&|c, t| l(c).prob.ns as f64 / t / 1e3),
        "us",
    );
    m.put(
        "prob.calls_per_tick",
        mean(&|c, t| l(c).prob.calls as f64 / t),
        "count",
    );
    m.put(
        "ds.live_bytes_peak",
        sum(&|c| c.steady.live_peak as f64),
        "bytes",
    );
    m.put("ds.capacity_final", sum(&|c| c.capacity() as f64), "count");
    m.put(
        "alloc.per_particle_tick.native",
        mean(&|c, t| c.steady.allocs as f64 / t / n),
        "count",
    );
    m.put(
        "alloc.model_per_particle_tick",
        mean(&|c, t| (l(c).model.allocs - l(c).prob.allocs) as f64 / t / n),
        "count",
    );
    m.put(
        "alloc.prob_per_particle_tick",
        mean(&|c, t| l(c).prob.allocs as f64 / t / n),
        "count",
    );
    m.put(
        "trace.overhead_share.native",
        overhead(&native.plain, &native.traced),
        "ratio",
    );

    // dsl: the tape carries the tick; compared cell by cell with native.
    let dsl = plain_and_traced("dsl", secs(budget * 0.35), |tr| {
        dsl_cells(&data, seed, PREFIX_DSL / TRACE_PREFIX_SHARE, tr)
    })?;
    tally += dsl.tally;
    let (d_plain, d_cells) = (&dsl.plain, &dsl.traced_cells);
    let per_particle = |f: &dyn Fn(&Cell) -> f64| {
        stats::geomean(
            &d_cells
                .iter()
                .map(|c| f(c) / c.steady.ticks.max(1) as f64 / PARTICLES as f64)
                .collect::<Vec<_>>(),
        )
    };
    m.put(
        "tape.us_per_particle_tick",
        stats::geomean(
            &d_plain
                .iter()
                .map(|f| f.p50.value * 1e3 / PARTICLES as f64)
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    for ((c, d), n) in d_cells.iter().zip(d_plain).zip(&native.plain) {
        m.put(
            format!("dsl_gap.{}.{}", c.family.name(), c.method.label()),
            d.p50.value / n.p50.value,
            "ratio",
        );
    }
    m.put(
        "alloc.per_particle_tick.dsl",
        per_particle(&|c| c.steady.allocs as f64),
        "count",
    );
    m.put(
        "trace.overhead_share.dsl",
        overhead(d_plain, &dsl.traced),
        "ratio",
    );
    static_counts(m, seed)?;
    compile_split(m, seed)?;

    // robot-loop: the open-loop schedule for a fixed number of ticks, then
    // the closed loop with counting on, over the scored prefix. The
    // end-to-end run closes the loop: timed from due time, its p99 swung
    // with the host's stalls far beyond any usable bound.
    let mut bot = RobotLoop::new(seed, PREFIX_LOOP)?;
    let plain = bot.run(
        Some(PERIOD),
        None,
        Duration::ZERO,
        SCHEDULED_TICKS,
        LoopTimes::with_capacity(SCHEDULED_TICKS),
    );
    let t = bot.finish(None);
    print_loop("robot-loop", &bot, &plain, t);
    tally += t;
    alloc::set_counting(true);
    let mut traced_bot = RobotLoop::new(seed, PREFIX_LOOP)?;
    let traced = traced_bot.run(None, None, Duration::ZERO, 0, LoopTimes::default());
    alloc::set_counting(false);
    let t = traced_bot.finish(Some(bot.fingerprint));
    print_loop("robot-loop+trace", &traced_bot, &traced, t);
    tally += t;
    m.put("loop.latency_ms_p99", plain.latency_tail.0.value, "ms");
    m.put(
        "loop.start_late_ms_p99",
        tail(&plain.start_late).value,
        "ms",
    );
    m.put("loop.busy_share", plain.busy_share, "share");
    m.put(
        "loop.deadline_miss_share",
        plain.misses as f64 / plain.latency.len().max(1) as f64,
        "share",
    );
    m.put(
        "alloc.per_particle_tick.robot-loop",
        traced.allocs as f64 / (traced.step.len() * PARTICLES) as f64,
        "count",
    );
    m.put(
        "trace.overhead_share.robot-loop",
        percentile(&traced.step, 0.5).value / percentile(&plain.step, 0.5).value,
        "ratio",
    );
    Ok(tally)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut metrics = Metrics::default();
    let result = if args.trace {
        run_traced(args.seed, args.seconds, &mut metrics)
    } else {
        match args.workload {
            Workload::Native => run_native(args.seed, args.seconds, &mut metrics),
            Workload::Dsl => run_dsl(args.seed, args.seconds, &mut metrics),
            Workload::RobotLoop => run_robot_loop(args.seed, args.seconds, &mut metrics),
        }
    };
    let tally = match result {
        Ok(t) => t,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    println!(
        "  {:<34} {:>16.6} share ({} of {} ticks)",
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("{}", metrics.to_json(tally, correct));
}
