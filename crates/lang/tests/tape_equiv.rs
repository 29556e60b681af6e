//! Differential oracle for the flat instruction tape: every committed
//! example program must produce **bit-identical** posteriors (and
//! deterministic outputs) under `ExecBackend::Tape` vs. the tree-walking
//! interpreter, across every inference method, both particle layouts,
//! and both the plain and the optimizing pipeline. The interpreter is
//! the semantic oracle; the tape's claim is that lowering changes only
//! the cost model, never a bit of the posterior.
//!
//! Worker-pool counts are deliberately not a test axis: `MufModel` holds
//! `Rc` state and is not `Send`, so DSL engines always step particles
//! sequentially regardless of the configured parallelism.

use probzelus_core::infer::{Method, ParticleLayout};
use probzelus_core::Value;
use probzelus_lang::pipeline::{compile_source, compile_source_opt, Compiled};
use probzelus_lang::{ExecBackend, MufEngine, Options};

const METHODS: [Method; 4] = [
    Method::ParticleFilter,
    Method::BoundedDs,
    Method::StreamingDs,
    Method::ClassicDs,
];
const LAYOUTS: [ParticleLayout; 2] = [ParticleLayout::PerParticle, ParticleLayout::StructOfArrays];

fn example(file: &str) -> String {
    let path = format!("{}/../../examples/zelus/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A tiny deterministic float stream (LCG), so the oracle needs no RNG
/// dependency and every run sees the same inputs.
fn float_inputs(n: usize) -> Vec<f64> {
    let mut state: u64 = 0x9e3779b97f4a7c15;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
        .collect()
}

fn engine(
    compiled: &Compiled,
    node: &str,
    particles: usize,
    method: Method,
    layout: ParticleLayout,
    backend: ExecBackend,
) -> MufEngine {
    let options = Options {
        method,
        seed: 42,
        backend,
    };
    compiled
        .infer_node(node, particles, options)
        .unwrap_or_else(|e| panic!("{node} ({backend:?}): {e}"))
        .with_particle_layout(layout)
}

/// Drives `node` on the interpreter and on the tape and asserts
/// bit-identical posteriors at every tick, for every method × layout,
/// including after a reset. Also asserts the tape actually lowered —
/// a silent fallback to the interpreter would make this test vacuous.
fn assert_backends_identical(
    file: &str,
    compiled: &Compiled,
    node: &str,
    particles: usize,
    inputs: &[Value],
) {
    for method in METHODS {
        for layout in LAYOUTS {
            let mut interp = engine(
                compiled,
                node,
                particles,
                method,
                layout,
                ExecBackend::Interp,
            );
            let mut tape = engine(compiled, node, particles, method, layout, ExecBackend::Tape);
            assert_eq!(
                interp.tape_status(),
                None,
                "{file}/{node}: interpreter backend must not hold a tape"
            );
            let mut first_run = Vec::new();
            for (t, input) in inputs.iter().enumerate() {
                let p_interp = interp.step(input).expect("interp step");
                let p_tape = tape.step(input).expect("tape step");
                assert_eq!(
                    p_interp.mean_float().to_bits(),
                    p_tape.mean_float().to_bits(),
                    "{file}/{node} {method:?}/{layout} tick {t}: mean drifted \
                     ({} vs {})",
                    p_interp.mean_float(),
                    p_tape.mean_float()
                );
                assert_eq!(
                    p_interp, p_tape,
                    "{file}/{node} {method:?}/{layout} tick {t}: posterior drifted"
                );
                first_run.push(p_tape);
            }
            assert_eq!(
                tape.tape_status(),
                Some(Ok(())),
                "{file}/{node} {method:?}/{layout}: tape did not lower"
            );
            // Reset must rebuild the register-file state slots from the
            // initial state: a second run replays the first bit-for-bit.
            tape.reset();
            for (t, input) in inputs.iter().enumerate() {
                let p = tape.step(input).expect("tape replay step");
                assert_eq!(
                    p, first_run[t],
                    "{file}/{node} {method:?}/{layout} tick {t}: reset diverged"
                );
            }
        }
    }
}

/// Drives a deterministic node (embedded `infer` sites and all) with both
/// backends and asserts identical outputs at every tick. Embedded engines
/// inherit the instance's backend, so this exercises the tape through the
/// EngineInit/Infer path rather than the driver path.
fn assert_instance_identical(file: &str, compiled: &Compiled, node: &str, inputs: &[Value]) {
    for method in METHODS {
        let mk = |backend| {
            compiled
                .instantiate(
                    node,
                    Options {
                        method,
                        seed: 7,
                        backend,
                    },
                )
                .unwrap_or_else(|e| panic!("{file}/{node} ({backend:?}): {e}"))
        };
        let mut inst_interp = mk(ExecBackend::Interp);
        let mut inst_tape = mk(ExecBackend::Tape);
        for (t, input) in inputs.iter().enumerate() {
            let v_interp = inst_interp.step(input.clone()).expect("interp step");
            let v_tape = inst_tape.step(input.clone()).expect("tape step");
            assert_eq!(
                format!("{v_interp:?}"),
                format!("{v_tape:?}"),
                "{file}/{node} {method:?} tick {t}: output drifted"
            );
        }
    }
}

/// Runs a file's probabilistic node through both pipelines (plain and
/// optimizing), both backends, all methods and layouts.
fn check_infer(file: &str, node: &str, particles: usize, inputs: &[Value]) {
    let src = example(file);
    let base = compile_source(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    let opt = compile_source_opt(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_backends_identical(file, &base, node, particles, inputs);
    assert_backends_identical(file, &opt, node, particles, inputs);
}

fn check_instance(file: &str, node: &str, inputs: &[Value]) {
    let src = example(file);
    let base = compile_source(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    let opt = compile_source_opt(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_instance_identical(file, &base, node, inputs);
    assert_instance_identical(file, &opt, node, inputs);
}

#[test]
fn hmm_posteriors_are_bit_identical() {
    let inputs: Vec<Value> = float_inputs(40).into_iter().map(Value::Float).collect();
    check_infer("hmm.zl", "hmm", 50, &inputs);
}

#[test]
fn coin_posteriors_are_bit_identical() {
    let inputs: Vec<Value> = float_inputs(40)
        .into_iter()
        .map(|x| Value::Bool(x > 0.0))
        .collect();
    check_infer("coin.zl", "coin", 50, &inputs);
}

fn robot_inputs(n: usize) -> Vec<Value> {
    // (a_obs, (has_gps, (p_obs, prev_cmd))) — the gps_acc_tracker input.
    float_inputs(n)
        .iter()
        .enumerate()
        .map(|(t, &x)| {
            Value::pair(
                Value::Float(x * 0.1),
                Value::pair(
                    Value::Bool(t % 5 == 0),
                    Value::pair(Value::Float(x.abs()), Value::Float(0.0)),
                ),
            )
        })
        .collect()
}

#[test]
fn robot_tracker_posteriors_are_bit_identical() {
    check_infer("robot.zl", "gps_acc_tracker", 30, &robot_inputs(25));
}

#[test]
fn hmm_embedded_main_is_identical() {
    let inputs: Vec<Value> = float_inputs(15).into_iter().map(Value::Float).collect();
    check_instance("hmm.zl", "main", &inputs);
}

#[test]
fn coin_embedded_main_is_identical() {
    let inputs: Vec<Value> = float_inputs(15)
        .into_iter()
        .map(|x| Value::Bool(x > 0.0))
        .collect();
    check_instance("coin.zl", "main", &inputs);
}

#[test]
fn counter_is_identical() {
    let inputs: Vec<Value> = float_inputs(20).into_iter().map(Value::Float).collect();
    check_instance("counter.zl", "counter", &inputs);
}

#[test]
fn robot_drivers_are_identical() {
    let inputs = robot_inputs(12);
    check_instance("robot.zl", "robot", &inputs);
    check_instance("robot.zl", "task_bot", &inputs);
}

/// An interpreter-backed engine reports no tape at all — the accessor is
/// how drivers audit which backend actually ran.
#[test]
fn interp_backend_reports_no_tape() {
    let src = example("hmm.zl");
    let compiled = compile_source(&src).expect("hmm compiles");
    let mut eng = engine(
        &compiled,
        "hmm",
        8,
        Method::StreamingDs,
        ParticleLayout::PerParticle,
        ExecBackend::Interp,
    );
    eng.step(&Value::Float(0.5)).expect("step");
    assert_eq!(eng.tape_status(), None);
}

// ---------------------------------------------------------------------
// Flattening and fusion traps. The tape splits the state down to its
// leaves and moves each live leaf out of the shared register file after a
// particle steps, and it fuses each distribution constructor into the
// `sample` or `observe` that consumes it. These hand-built µF kernels pin
// the cases where that could go wrong, each tape-vs-interpreter bitwise
// under PF and SDS.
// ---------------------------------------------------------------------

mod traps {
    use super::*;
    use probzelus_lang::ast::Const;
    use probzelus_lang::eval::Interp;
    use probzelus_lang::muf::{Closure, Env, MufExpr, MufPat};
    use probzelus_lang::tape::{Op, TapeProgram};
    use probzelus_lang::transform::lower::lower_closure;
    use probzelus_lang::{MufProgram, MufValue, OpName};
    use std::rc::Rc;

    fn var(x: &str) -> MufExpr {
        MufExpr::Var(x.into())
    }

    fn float(x: f64) -> MufExpr {
        MufExpr::Const(Const::Float(x))
    }

    fn op(o: OpName, args: Vec<MufExpr>) -> MufExpr {
        MufExpr::Op(o, args)
    }

    fn tuple(xs: Vec<MufExpr>) -> MufExpr {
        MufExpr::Tuple(xs)
    }

    fn let_(pat: MufPat, bound: MufExpr, body: MufExpr) -> MufExpr {
        MufExpr::Let(pat, Box::new(bound), Box::new(body))
    }

    fn pvar(x: &str) -> MufPat {
        MufPat::var(x)
    }

    fn ptuple(ps: Vec<MufPat>) -> MufPat {
        MufPat::Tuple(ps)
    }

    fn fv(x: f64) -> MufValue {
        MufValue::V(Value::Float(x))
    }

    fn bv(b: bool) -> MufValue {
        MufValue::V(Value::Bool(b))
    }

    /// `let x = sample (gaussian (mean, 1)) in observe (gaussian (x, 1), y); rest`
    fn sample_observe(mean: MufExpr, rest: MufExpr) -> MufExpr {
        let_(
            pvar("x"),
            MufExpr::Sample(Box::new(op(OpName::Gaussian, vec![mean, float(1.0)]))),
            let_(
                MufPat::Wildcard,
                MufExpr::Observe(
                    Box::new(op(OpName::Gaussian, vec![var("x"), float(1.0)])),
                    Box::new(var("y")),
                ),
                rest,
            ),
        )
    }

    fn closure(pat: MufPat, body: &Rc<MufExpr>, env: Env) -> MufValue {
        MufValue::Closure(Rc::new(Closure {
            pat,
            body: Rc::clone(body),
            env,
        }))
    }

    fn engine(
        method: Method,
        backend: ExecBackend,
        init: &MufValue,
        transition: &MufValue,
    ) -> MufEngine {
        let options = Options {
            method,
            seed: 5,
            backend,
        };
        let interp = Interp::new(&MufProgram::default(), options).expect("empty program loads");
        MufEngine::new(
            interp,
            method,
            8,
            init.clone(),
            transition.clone(),
            true,
            options.seed,
        )
    }

    /// Steps both backends over `inputs` (re-closing the transition per
    /// tick through `reclose`) and asserts identical posteriors; returns
    /// the tape engine's final status.
    fn run_both(
        method: Method,
        init: &MufValue,
        transition: &MufValue,
        reclose: &dyn Fn(usize) -> Option<MufValue>,
        inputs: &[f64],
    ) -> Result<(), String> {
        let mut interp = engine(method, ExecBackend::Interp, init, transition);
        let mut tape = engine(method, ExecBackend::Tape, init, transition);
        for (t, y) in inputs.iter().enumerate() {
            if let Some(c) = reclose(t) {
                interp.set_closure(c.clone());
                tape.set_closure(c);
            }
            let y = Value::Float(*y);
            let p_interp = interp.step(&y).expect("interp step");
            let p_tape = tape.step(&y).expect("tape step");
            assert_eq!(
                p_interp.mean_float().to_bits(),
                p_tape.mean_float().to_bits(),
                "{method:?} tick {t}: mean drifted"
            );
            assert_eq!(p_interp, p_tape, "{method:?} tick {t}: posterior drifted");
        }
        tape.tape_status().expect("tape backend reports a status")
    }

    const INPUTS: [f64; 8] = [0.4, -1.2, 0.9, 1.7, -0.3, -2.0, 0.8, 1.1];

    /// The successor state holds a literal, a captured variable and the
    /// tick input as leaves. The first two live in registers every
    /// particle shares (the constant pool, the env slots): moving them
    /// out would leave `nil` for the next particle, so lowering must copy.
    #[test]
    fn successor_state_of_literal_captured_and_input_leaves() {
        // fun ((k, u, w, xp), y) ->
        //   let x = sample (gaussian (k + u + w + xp * 0.5, 1)) in
        //   observe (gaussian (x, 1), y); (x, (1.0, c, y, x))
        let mean = op(
            OpName::Add,
            vec![
                op(
                    OpName::Add,
                    vec![op(OpName::Add, vec![var("k"), var("u")]), var("w")],
                ),
                op(OpName::Mul, vec![var("xp"), float(0.5)]),
            ],
        );
        let body = Rc::new(sample_observe(
            mean,
            tuple(vec![
                var("x"),
                tuple(vec![float(1.0), var("c"), var("y"), var("x")]),
            ]),
        ));
        let pat = ptuple(vec![
            ptuple(vec![pvar("k"), pvar("u"), pvar("w"), pvar("xp")]),
            pvar("y"),
        ]);
        let env = Env::empty().bind("c", fv(0.25));
        let transition = closure(pat, &body, env);
        let init = MufValue::Tuple(vec![fv(0.0), fv(0.0), fv(0.0), fv(0.0)]);
        for method in [Method::ParticleFilter, Method::StreamingDs] {
            let status = run_both(method, &init, &transition, &|_| None, &INPUTS);
            assert_eq!(
                status,
                Ok(()),
                "{method:?}: the kernel must stay on the tape"
            );
        }
    }

    /// `fun ((has, prev), y) -> let (a, b) = prev in let _ = prev = prev in
    ///    let x = sample (gaussian (select (has, a + b * 0.5, 0), 1)) in
    ///    observe (gaussian (x, 1), y);
    ///    let keep = y > 0 in (x, (keep, if keep then (x, y) else nil))`
    fn nil_or_pair_kernel() -> MufValue {
        let mean = MufExpr::Select(
            Box::new(var("has")),
            Box::new(op(
                OpName::Add,
                vec![var("a"), op(OpName::Mul, vec![var("b"), float(0.5)])],
            )),
            Box::new(float(0.0)),
        );
        let next = let_(
            pvar("keep"),
            op(OpName::Gt, vec![var("y"), float(0.0)]),
            tuple(vec![
                var("x"),
                tuple(vec![
                    var("keep"),
                    MufExpr::If(
                        Box::new(var("keep")),
                        Box::new(tuple(vec![var("x"), var("y")])),
                        Box::new(MufExpr::Const(Const::Nil)),
                    ),
                ]),
            ]),
        );
        // `prev = prev` reads `prev` whole: `nil` there poisons to `nil`,
        // while a tuple of `nil`s fails, so a `nil` successor wrongly
        // split into leaves cannot go unnoticed.
        let body = Rc::new(let_(
            ptuple(vec![pvar("a"), pvar("b")]),
            var("prev"),
            let_(
                MufPat::Wildcard,
                op(OpName::Eq, vec![var("prev"), var("prev")]),
                sample_observe(mean, next),
            ),
        ));
        let pat = ptuple(vec![ptuple(vec![pvar("has"), pvar("prev")]), pvar("y")]);
        closure(pat, &body, Env::empty())
    }

    /// A state position that is `nil` at init and a tuple later stays one
    /// opaque leaf holding whatever value it has.
    #[test]
    fn state_leaf_nil_at_init_then_tuple() {
        let init = MufValue::Tuple(vec![bv(false), MufValue::Nil]);
        for method in [Method::ParticleFilter, Method::StreamingDs] {
            let status = run_both(method, &init, &nil_or_pair_kernel(), &|_| None, &INPUTS);
            assert_eq!(status, Ok(()), "{method:?}");
        }
    }

    /// The reverse: a tuple at init whose successor may be `nil`. Split
    /// into leaves it would come back as `(nil, nil)`, not `nil`, so the
    /// lowering keeps the position opaque and the posterior bits hold.
    #[test]
    fn state_node_tuple_at_init_then_nil() {
        let init = MufValue::Tuple(vec![bv(true), MufValue::Tuple(vec![fv(0.5), fv(-0.5)])]);
        for method in [Method::ParticleFilter, Method::StreamingDs] {
            let status = run_both(method, &init, &nil_or_pair_kernel(), &|_| None, &INPUTS);
            assert_eq!(status, Ok(()), "{method:?}");
        }
    }

    /// A captured tuple is split into env leaf registers when the tape is
    /// lowered. When a later closure captures a value of another shape (a
    /// core pair here, which the interpreter destructures the same way),
    /// the engine must fall back, say why, and keep the bits.
    #[test]
    fn captured_tuple_changing_shape_falls_back() {
        // fun (s, y) -> let (p, q) = c in
        //   let x = sample (gaussian (s * 0.5 + p * q, 1)) in
        //   observe (gaussian (x, 1), y); (x, x)
        let mean = op(
            OpName::Add,
            vec![
                op(OpName::Mul, vec![var("s"), float(0.5)]),
                op(OpName::Mul, vec![var("p"), var("q")]),
            ],
        );
        let body = Rc::new(let_(
            ptuple(vec![pvar("p"), pvar("q")]),
            var("c"),
            sample_observe(mean, tuple(vec![var("x"), var("x")])),
        ));
        let pat = ptuple(vec![pvar("s"), pvar("y")]);
        let with_c = |c: MufValue| closure(pat.clone(), &body, Env::empty().bind("c", c));
        let transition = with_c(MufValue::Tuple(vec![fv(0.5), fv(0.25)]));
        let reclose = |t: usize| {
            Some(if t < 3 {
                with_c(MufValue::Tuple(vec![fv(0.5), fv(t as f64)]))
            } else {
                with_c(MufValue::V(Value::pair(
                    Value::Float(0.5),
                    Value::Float(t as f64),
                )))
            })
        };
        for method in [Method::ParticleFilter, Method::StreamingDs] {
            let status = run_both(method, &fv(0.0), &transition, &reclose, &INPUTS);
            let reason = status.expect_err("the shape change must pin the interpreter");
            assert!(
                reason.contains("captured variable `c` changed shape"),
                "{method:?}: unexpected reason: {reason}"
            );
        }
    }

    /// The tape a driver-facing transition lowers to.
    fn lowered(init: &MufValue, transition: &MufValue) -> TapeProgram {
        let MufValue::Closure(c) = transition else {
            panic!("not a closure");
        };
        let options = Options {
            method: Method::ParticleFilter,
            seed: 5,
            backend: ExecBackend::Tape,
        };
        let interp = Interp::new(&MufProgram::default(), options).expect("empty program loads");
        lower_closure(&interp, c, init, true).expect("the kernel lowers")
    }

    /// How many ops of the tape match `f`.
    fn count(prog: &TapeProgram, f: fn(&Op) -> bool) -> usize {
        prog.ops.iter().filter(|op| f(op)).count()
    }

    /// A `nil` constructor argument makes the fused op fail exactly like
    /// the unfused constructor-then-consumer pair: the constructor yields
    /// `nil`, which `sample` and `observe` reject as an uninitialized
    /// distribution.
    #[test]
    fn nil_distribution_argument_fails_alike() {
        // fun (m, y) -> let x = sample (gaussian (m, 1)) in
        //   observe (gaussian (x, 1), y); (x, x)
        let in_sample = sample_observe(var("m"), tuple(vec![var("x"), var("x")]));
        // fun (m, y) -> let x = sample (gaussian (0, 1)) in
        //   observe (gaussian (m, 1), y); (x, x)
        let in_observe = let_(
            pvar("x"),
            MufExpr::Sample(Box::new(op(OpName::Gaussian, vec![float(0.0), float(1.0)]))),
            let_(
                MufPat::Wildcard,
                MufExpr::Observe(
                    Box::new(op(OpName::Gaussian, vec![var("m"), float(1.0)])),
                    Box::new(var("y")),
                ),
                tuple(vec![var("x"), var("x")]),
            ),
        );
        for body in [in_sample, in_observe] {
            let pat = ptuple(vec![pvar("m"), pvar("y")]);
            let transition = closure(pat, &Rc::new(body), Env::empty());
            let prog = lowered(&MufValue::Nil, &transition);
            assert_eq!(
                count(&prog, |op| matches!(
                    op,
                    Op::SampleDist { .. } | Op::ObserveDist { .. }
                )),
                2,
                "both distributions must be fused"
            );
            for method in [Method::ParticleFilter, Method::StreamingDs] {
                let step = |backend| {
                    engine(method, backend, &MufValue::Nil, &transition)
                        .step(&Value::Float(0.5))
                        .expect_err("a nil distribution argument must fail")
                        .to_string()
                };
                let (e_interp, e_tape) = (step(ExecBackend::Interp), step(ExecBackend::Tape));
                assert!(
                    e_interp.contains("uninitialized distribution"),
                    "{method:?}: unexpected error: {e_interp}"
                );
                assert_eq!(
                    e_interp, e_tape,
                    "{method:?}: the backends fail differently"
                );
            }
        }
    }

    /// A distribution value read twice is a value in its own right: its
    /// constructor stays a register write, and both consumers read it.
    #[test]
    fn distribution_read_twice_stays_unfused() {
        // fun (s, y) -> let d = gaussian (s * 0.5, 1) in
        //   let x = sample d in observe (d, y); (x, x)
        let body = Rc::new(let_(
            pvar("d"),
            op(
                OpName::Gaussian,
                vec![op(OpName::Mul, vec![var("s"), float(0.5)]), float(1.0)],
            ),
            let_(
                pvar("x"),
                MufExpr::Sample(Box::new(var("d"))),
                let_(
                    MufPat::Wildcard,
                    MufExpr::Observe(Box::new(var("d")), Box::new(var("y"))),
                    tuple(vec![var("x"), var("x")]),
                ),
            ),
        ));
        let transition = closure(ptuple(vec![pvar("s"), pvar("y")]), &body, Env::empty());
        let prog = lowered(&fv(0.0), &transition);
        assert_eq!(
            count(&prog, |op| matches!(
                op,
                Op::BinOp {
                    op: OpName::Gaussian,
                    ..
                }
            )),
            1
        );
        assert_eq!(count(&prog, |op| matches!(op, Op::Sample { .. })), 1);
        assert_eq!(count(&prog, |op| matches!(op, Op::Observe { .. })), 1);
        assert_eq!(
            count(&prog, |op| matches!(
                op,
                Op::SampleDist { .. } | Op::ObserveDist { .. }
            )),
            0,
            "a shared distribution must not be fused"
        );
        for method in [Method::ParticleFilter, Method::StreamingDs] {
            let status = run_both(method, &fv(0.0), &transition, &|_| None, &INPUTS);
            assert_eq!(status, Ok(()), "{method:?}");
        }
    }

    /// Fusion covers every constructor family, not just `gaussian`: the
    /// coin's `beta` prior and `bernoulli` likelihood both fuse (its
    /// posteriors are checked bitwise by `coin_posteriors_are_bit_identical`).
    #[test]
    fn coin_beta_and_bernoulli_are_fused() {
        let compiled = compile_source_opt(&example("coin.zl")).expect("coin compiles");
        let options = Options {
            method: Method::StreamingDs,
            seed: 0,
            backend: ExecBackend::Tape,
        };
        let prog = compiled
            .lower_node("coin", options)
            .expect("lower_node runs")
            .expect("coin lowers");
        assert_eq!(
            count(&prog, |op| matches!(
                op,
                Op::SampleDist {
                    family: OpName::Beta,
                    ..
                }
            )),
            1,
            "beta prior not fused"
        );
        assert_eq!(
            count(&prog, |op| matches!(
                op,
                Op::ObserveDist {
                    family: OpName::Bernoulli,
                    ..
                }
            )),
            1,
            "bernoulli likelihood not fused"
        );
        assert_eq!(
            count(&prog, |op| matches!(
                op,
                Op::Sample { .. } | Op::Observe { .. } | Op::UnOp { .. } | Op::BinOp { .. }
            )),
            0,
            "a constructor or an unfused consumer is left"
        );
    }
}
