//! The tape backend's steady-state allocation count, measured directly:
//! a std-only counting global allocator tallies every heap allocation
//! the stepping thread makes while an `hmm` engine (the optimized
//! `examples/zelus/hmm.zl` pipeline on the tape) runs 500 ticks of 64
//! particles. The count covers the whole engine step — model, density
//! scoring, delayed-sampling graph, resampling — divided per
//! particle-tick, and is asserted against the value measured when this
//! test was written, so a regression in any layer shows here.

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

/// Steady-state allocations per particle-tick of `hmm` under `method`.
fn hmm_allocs_per_particle_tick(method: Method) -> f64 {
    let path = format!("{}/../../examples/zelus/hmm.zl", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let compiled = compile_source_opt(&src).expect("hmm compiles");
    let options = Options {
        method,
        seed: 42,
        backend: ExecBackend::Tape,
    };
    let mut engine = compiled
        .infer_node("hmm", PARTICLES, options)
        .expect("hmm engine");
    let inputs = float_inputs(WARMUP + TICKS);
    for y in &inputs[..WARMUP] {
        engine.step(y).expect("warmup step");
    }
    assert_eq!(engine.tape_status(), Some(Ok(())), "{method:?}: no tape");
    let mut posteriors = Vec::with_capacity(TICKS);
    let n = allocations(|| {
        for y in &inputs[WARMUP..] {
            posteriors.push(engine.step(y).expect("steady-state step"));
        }
    });
    assert_eq!(engine.tape_status(), Some(Ok(())), "{method:?}: fell back");
    n as f64 / (TICKS * PARTICLES) as f64
}

/// Per particle-tick the hmm tape allocates its two distribution values
/// (`Value::Dist` boxes); the rest is the engine's share — resampling
/// clones of the one live state slot under PF, and about eleven
/// allocations per tick for the posterior and the prelude's broadcast
/// closure. Measured: PF 2.517, SDS 2.172; the bounds sit just above.
#[test]
fn hmm_steady_state_allocations_per_particle_tick() {
    for (method, bound) in [(Method::ParticleFilter, 2.55), (Method::StreamingDs, 2.2)] {
        let per = hmm_allocs_per_particle_tick(method);
        eprintln!("{method:?}: {per:.3} allocations per particle-tick");
        assert!(
            per <= bound,
            "{method:?}: {per:.3} allocations per particle-tick (bound {bound})"
        );
    }
}
