//! Property-based tests for the instruction-tape backend: on randomly
//! shaped well-kinded kernel programs, lowering to the flat tape must be
//! bitwise posterior-preserving against the tree-walking interpreter —
//! the same contract `tests/props.rs` (workspace root) pins for the
//! optimizer passes, extended to the execution backend.

use probzelus_core::infer::Method;
use probzelus_core::Value;
use probzelus_lang::pipeline::{compile_source, compile_source_opt};
use probzelus_lang::{ExecBackend, Options};
use proptest::prelude::*;

/// Builds a randomly shaped but well-kinded kernel program covering the
/// constructs the lowering pass handles: arrow flags (`Select` ops after
/// hoisting), `pre`-carried state (register-file state slots), nested
/// tuples, arithmetic chains, a conditional observation mean, and a
/// sampled/observed latent. `lags` chains that many instances of a
/// helper node, nesting their states (each with a `nil` leaf at init)
/// inside the kernel's; `with_pair` adds a tuple-valued `pre`, a state
/// leaf that is `nil` at init and a tuple afterwards.
#[allow(clippy::too_many_arguments)]
fn program(
    g: f64,
    d: f64,
    a: f64,
    q: f64,
    r: f64,
    with_dead: bool,
    with_cse: bool,
    with_gain: bool,
    lags: usize,
    with_pair: bool,
) -> String {
    let lag_node = "let node lag v = 0.0 -> pre v\n";
    let lagged = (0..lags).fold("drift".to_string(), |acc, _| format!("lag ({acc})"));
    let lag_eq = if lags > 0 {
        format!("and lagged = {lagged}\n")
    } else {
        String::new()
    };
    let lag_use = if lags > 0 { "+ lagged * 0.01 " } else { "" };
    let pair_eq = if with_pair {
        "and (p1, p2) = (0.0, 0.0) -> pre (x, drift)\n"
    } else {
        ""
    };
    let pair_use = if with_pair { "+ p1 * 0.05 + p2 " } else { "" };
    let gain_eq = if with_gain {
        format!("and gain = 1.0 -> pre gain * {g:?}\n")
    } else {
        String::new()
    };
    let gain_use = if with_gain { "+ gain * 0.1 " } else { "" };
    let dead_eq = if with_dead {
        "and dead = y * 3.0\n"
    } else {
        ""
    };
    let mean = if with_cse {
        "x * scale + x * scale"
    } else {
        "x * scale"
    };
    format!(
        "{lag_node}let node m y = x where
           rec scale = 1.0 + 2.0 * 0.5
           and drift = 0.0 -> pre drift + {d:?}
           {gain_eq}{dead_eq}{lag_eq}{pair_eq}and x = sample (gaussian ((0.0 -> pre x) * {a:?} {gain_use}{lag_use}{pair_use}+ drift, {q:?}))
           and () = observe (gaussian ({mean}, {r:?}), y)"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tape backend is bitwise posterior-preserving on randomly
    /// generated well-kinded kernels, for both a sampling method (PF)
    /// and an exact one (SDS), through both the plain and the optimizing
    /// pipeline — and lowering must actually succeed, so the property
    /// can never be satisfied by a silent interpreter fallback.
    #[test]
    fn tape_preserves_posteriors_bitwise(
        g in 0.5f64..1.5,
        d in -0.5f64..0.5,
        a in 0.2f64..1.2,
        q in 0.1f64..5.0,
        r in 0.1f64..5.0,
        with_dead in any::<bool>(),
        with_cse in any::<bool>(),
        with_gain in any::<bool>(),
        lags in 0usize..3,
        with_pair in any::<bool>(),
        ys in proptest::collection::vec(-3.0f64..3.0, 1..6),
    ) {
        let src = program(g, d, a, q, r, with_dead, with_cse, with_gain, lags, with_pair);
        for compiled in [compile_source(&src).unwrap(), compile_source_opt(&src).unwrap()] {
            for method in [Method::ParticleFilter, Method::StreamingDs] {
                let mk = |backend| {
                    compiled
                        .infer_node("m", 20, Options { method, seed: 11, backend })
                        .unwrap()
                };
                let mut eng_interp = mk(ExecBackend::Interp);
                let mut eng_tape = mk(ExecBackend::Tape);
                for y in &ys {
                    let p_interp = eng_interp.step(&Value::Float(*y)).unwrap();
                    let p_tape = eng_tape.step(&Value::Float(*y)).unwrap();
                    prop_assert_eq!(
                        p_interp.mean_float().to_bits(),
                        p_tape.mean_float().to_bits(),
                        "{:?}: mean drifted on\n{}",
                        method,
                        src
                    );
                    prop_assert_eq!(
                        &p_interp, &p_tape,
                        "{:?}: posterior drifted on\n{}", method, src
                    );
                }
                prop_assert_eq!(
                    eng_tape.tape_status(),
                    Some(Ok(())),
                    "tape did not lower:\n{}",
                    src
                );
            }
        }
    }
}
