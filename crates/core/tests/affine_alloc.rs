//! Affine terms over at most three small-id variables live inline, so the
//! symbolic arithmetic of a delayed-sampling tick allocates nothing. This
//! test counts heap allocations directly: a std-only counting global
//! allocator tallies every allocation the test thread makes while armed,
//! around `ops` arithmetic, `AffExpr` clone/scale/substitute, and the
//! graph's `simplify_value`/`force_value` on such terms.

use probzelus_core::ds::{Graph, Retention};
use probzelus_core::{ops, AffExpr, DistExpr, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), out)
}

fn aff(v: &Value) -> &AffExpr {
    match v {
        Value::Aff(e) => e,
        other => panic!("expected an affine value, got {other}"),
    }
}

/// Three fresh Gaussian roots `x0, x1, x2` in a pointer-minimal graph.
fn three_roots(g: &mut Graph, rng: &mut SmallRng) -> [Value; 3] {
    let mut root = || g.assume(&DistExpr::gaussian(0.0, 1.0), rng).expect("root");
    [root(), root(), root()]
}

#[test]
fn value_arithmetic_on_three_terms_does_not_allocate() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut g = Graph::new(Retention::PointerMinimal);
    let [x, y, z] = three_roots(&mut g, &mut rng);
    let two = Value::Float(2.0);
    let (n, out) = allocations(|| {
        // 2·x + y − (−z) / 2, one operator at a time, as an interpreter
        // or tape step issues them.
        let a = ops::mul(&two, &x).expect("mul");
        let b = ops::add(&a, &y).expect("add");
        let c = ops::neg(&z).expect("neg");
        let d = ops::div(&c, &two).expect("div");
        let e = ops::sub(&b, &d).expect("sub");
        let f = ops::mul(&e, &two).expect("mul by constant on the right");
        black_box(f.clone())
    });
    assert_eq!(aff(&out).num_vars(), 3);
    assert_eq!(n, 0, "{n} allocations for value arithmetic on three terms");
}

#[test]
fn affine_clone_scale_substitute_do_not_allocate() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut g = Graph::new(Retention::PointerMinimal);
    let [x, y, z] = three_roots(&mut g, &mut rng);
    let e = aff(&x)
        .add(&aff(&y).scale(-0.5))
        .add(&aff(&z).scale(3.0))
        .offset(1.0);
    assert_eq!(e.num_vars(), 3);
    let mid = aff(&y).terms().next().expect("y is a variable").0;
    let (n, (c, s, t)) = allocations(|| {
        let c = black_box(e.clone());
        let s = c.scale(0.25).sub(&e).add(&c);
        let t = s.substitute(|v| (v == mid).then_some(2.0));
        (c, s, t)
    });
    assert_eq!((c.num_vars(), s.num_vars(), t.num_vars()), (3, 3, 2));
    assert_eq!(n, 0, "{n} allocations for clone/scale/substitute");
}

#[test]
fn simplify_and_force_on_three_terms_do_not_allocate() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut g = Graph::new(Retention::PointerMinimal);
    // Warm-up: grow the slab and the graph's scratch chain once, then free
    // everything so the measured round reuses the slots.
    for _ in 0..2 {
        let [x, y, z] = three_roots(&mut g, &mut rng);
        let child = g
            .assume(&DistExpr::gaussian(x.clone(), 1.0), &mut rng)
            .expect("child");
        let sum = ops::add(&ops::add(&child, &y).expect("add"), &z).expect("add");
        g.force_value(&sum, &mut rng).expect("warm-up force");
        g.collect([]).expect("collect");
    }

    let [x, y, z] = three_roots(&mut g, &mut rng);
    // `child` is conjugate on `x`: forcing it walks a two-node chain.
    let child = g
        .assume(&DistExpr::gaussian(x.clone(), 1.0), &mut rng)
        .expect("child");
    let sum = ops::add(&ops::add(&child, &y).expect("add"), &z).expect("add");
    assert_eq!(aff(&sum).num_vars(), 3);
    let (n, (partial, forced, simplified)) = allocations(|| {
        g.force_value(&y, &mut rng).expect("force y");
        // One variable realized: simplification folds it into the constant.
        let partial = g.simplify_value(&sum);
        let forced = g.force_value(&sum, &mut rng).expect("force");
        let simplified = g.simplify_value(&sum);
        (partial, forced, simplified)
    });
    assert_eq!(aff(&partial).num_vars(), 2);
    assert!(matches!(forced, Value::Float(_)), "{forced}");
    assert_eq!(simplified, forced);
    assert_eq!(n, 0, "{n} allocations for simplify/force on three terms");
}
