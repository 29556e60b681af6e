//! The tape backend's steady-state allocation count, measured directly:
//! a std-only counting global allocator tallies every heap allocation
//! the stepping thread makes while an engine runs 500 ticks of 64
//! particles on an optimized `examples/zelus` pipeline on the tape
//! (`hmm.zl`'s `hmm`, and `robot.zl`'s `gps_acc_tracker`). The count
//! covers the whole engine step — model, density scoring,
//! delayed-sampling graph, resampling — divided per particle-tick, and is
//! asserted against the value measured when this test was written, so a
//! regression in any layer shows here.

use probzelus_core::infer::Method;
use probzelus_core::Value;
use probzelus_lang::pipeline::compile_source_opt;
use probzelus_lang::{ExecBackend, Options};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations (and reallocations) made on the current thread
/// while armed; forwards everything to the system allocator.
struct Counting;

fn count() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

const PARTICLES: usize = 64;
const WARMUP: usize = 20;
const TICKS: usize = 500;

/// A deterministic float stream (LCG), as in `tape_equiv.rs`.
fn float_inputs(n: usize) -> Vec<Value> {
    let mut state: u64 = 0x9e3779b97f4a7c15;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Value::Float(((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0)
        })
        .collect()
}

/// The `gps_acc_tracker` inputs `(a_obs, (has_gps, (p_obs, cmd)))` of a
/// robot driven by commands of ±0.5 held for 150 ticks, with noisy
/// accelerometer readings and a GPS fix every tenth tick, as in the Fig. 5
/// drivers.
fn robot_inputs(n: usize) -> Vec<Value> {
    let noise = float_inputs(2 * n);
    let (mut v, mut p) = (0.0, 0.0);
    (0..n)
        .map(|t| {
            let cmd = if (t / 150) % 2 == 0 { 0.5 } else { -0.5 };
            v += cmd * 0.1;
            p += v * 0.1;
            let a_obs = cmd + 0.02 * noise[2 * t].as_float().expect("float");
            let gps = t % 10 == 0;
            let p_obs = if gps {
                p + 0.05 * noise[2 * t + 1].as_float().expect("float")
            } else {
                0.0
            };
            Value::pair(
                Value::Float(a_obs),
                Value::pair(
                    Value::Bool(gps),
                    Value::pair(Value::Float(p_obs), Value::Float(cmd)),
                ),
            )
        })
        .collect()
}

/// Steady-state allocations per particle-tick of `node` in the example
/// `file`, compiled with the optimizing pipeline and run on the tape under
/// `method`.
fn allocs_per_particle_tick(file: &str, node: &str, method: Method, inputs: &[Value]) -> f64 {
    let path = format!("{}/../../examples/zelus/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let compiled = compile_source_opt(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    let options = Options {
        method,
        seed: 42,
        backend: ExecBackend::Tape,
    };
    let mut engine = compiled
        .infer_node(node, PARTICLES, options)
        .unwrap_or_else(|e| panic!("{file}:{node}: {e}"));
    for y in &inputs[..WARMUP] {
        engine.step(y).expect("warmup step");
    }
    assert_eq!(
        engine.tape_status(),
        Some(Ok(())),
        "{node} {method:?}: no tape"
    );
    let mut posteriors = Vec::with_capacity(TICKS);
    let n = allocations(|| {
        for y in &inputs[WARMUP..] {
            posteriors.push(engine.step(y).expect("steady-state step"));
        }
    });
    assert_eq!(
        engine.tape_status(),
        Some(Ok(())),
        "{node} {method:?}: fell back"
    );
    n as f64 / (inputs.len() - WARMUP) as f64 / PARTICLES as f64
}

/// The hmm tape itself allocates nothing per particle-tick: its two
/// `gaussian`s are fused into the `sample` and the `observe`, so no
/// distribution is boxed. What is left is the engine's share — about
/// eleven allocations per tick for the posterior and the prelude's
/// broadcast closure (0.17 per particle-tick at 64 particles), plus under
/// PF the resampling clones of the one live state slot. Measured: PF
/// 0.517, SDS 0.172 (2.517 and 2.172 with a boxed `Value::Dist` per
/// constructor); the bounds sit just above.
#[test]
fn hmm_steady_state_allocations_per_particle_tick() {
    let inputs = float_inputs(WARMUP + TICKS);
    for (method, bound) in [(Method::ParticleFilter, 0.55), (Method::StreamingDs, 0.2)] {
        let per = allocs_per_particle_tick("hmm.zl", "hmm", method, &inputs);
        eprintln!("hmm {method:?}: {per:.3} allocations per particle-tick");
        assert!(
            per <= bound,
            "hmm {method:?}: {per:.3} allocations per particle-tick (bound {bound})"
        );
    }
}

/// The Fig. 5 tracker: under SDS it keeps velocity and position as
/// affine terms over the acceleration variables still pending, and those
/// terms are inline; under PF every value is a float. Its three
/// `gaussian`s (the GPS one every tenth tick) are fused, so what is left
/// is the engine's share, as for hmm. Measured: PF 0.444, SDS 0.219 (SDS
/// was 2.319 with boxed distributions and 15.82 with map-backed affine
/// terms); the bounds sit just above.
#[test]
fn robot_steady_state_allocations_per_particle_tick() {
    let inputs = robot_inputs(WARMUP + TICKS);
    for (method, bound) in [(Method::ParticleFilter, 0.47), (Method::StreamingDs, 0.25)] {
        let per = allocs_per_particle_tick("robot.zl", "gps_acc_tracker", method, &inputs);
        eprintln!("gps_acc_tracker {method:?}: {per:.3} allocations per particle-tick");
        assert!(
            per <= bound,
            "gps_acc_tracker {method:?}: {per:.3} allocations per particle-tick (bound {bound})"
        );
    }
}
