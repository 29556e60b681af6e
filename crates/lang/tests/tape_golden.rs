//! Golden-file coverage of the tape lowering: the rendered instruction
//! tapes of the committed example programs are checked in under
//! `tests/golden/` and must reproduce byte-for-byte. Lowering is fully
//! deterministic (names are interned in scope order, registers allocated
//! sequentially), so any diff here is a real change to the emitted code —
//! re-bless with `pzc emit --tape --opt examples/zelus/<file>` after
//! reviewing it.

use probzelus_core::infer::Method;
use probzelus_lang::eval::{ExecBackend, Options};
use probzelus_lang::pipeline::{compile_source_opt, Compiled};
use probzelus_lang::tape::Op;

fn example(file: &str) -> String {
    let path = format!("{}/../../examples/zelus/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn golden(file: &str) -> String {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn options() -> Options {
    Options {
        method: Method::StreamingDs,
        seed: 0,
        backend: ExecBackend::Tape,
    }
}

/// Renders every node of a compilation the way `pzc emit --tape` does.
fn render_all(compiled: &Compiled) -> String {
    let mut names: Vec<&String> = compiled.kinds.keys().collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        out.push_str(&format!("=== {name} ===\n"));
        match compiled
            .lower_node(name, options())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
        {
            Ok(prog) => out.push_str(&prog.render()),
            Err(reason) => out.push_str(&format!("not lowered: {reason}\n")),
        }
    }
    out
}

#[test]
fn hmm_tape_matches_golden() {
    let compiled = compile_source_opt(&example("hmm.zl")).expect("hmm compiles");
    assert_eq!(
        render_all(&compiled),
        golden("hmm_tape.txt"),
        "hmm tape drifted from tests/golden/hmm_tape.txt"
    );
}

#[test]
fn robot_tape_matches_golden() {
    let compiled = compile_source_opt(&example("robot.zl")).expect("robot compiles");
    assert_eq!(
        render_all(&compiled),
        golden("robot_tape.txt"),
        "robot tape drifted from tests/golden/robot_tape.txt"
    );
}

/// Structural invariants of the hmm tape that the golden file implies but
/// a reviewer should not have to read opcodes to trust: the hot loop has
/// exactly the model's one sample and one observe, each fused with its
/// `gaussian` constructor (no distribution is boxed into a register), and
/// it is fully flattened — no residual closure application (`Eval`), no
/// interpreter re-entry (`CallSummary`), and no tuple plumbing: the state
/// and the prelude broadcast live in leaf registers, so nothing is
/// projected out of a tuple or packed into one.
#[test]
fn hmm_tape_is_fully_flattened() {
    let compiled = compile_source_opt(&example("hmm.zl")).expect("hmm compiles");
    let prog = compiled
        .lower_node("hmm", options())
        .expect("lower_node runs")
        .expect("hmm lowers");
    let mut samples = 0;
    let mut observes = 0;
    for op in &prog.ops {
        match op {
            Op::SampleDist { .. } => samples += 1,
            Op::ObserveDist { .. } => observes += 1,
            Op::Sample { .. } | Op::Observe { .. } => {
                panic!("unfused distribution in the hmm tape")
            }
            Op::Eval { .. } => panic!("residual closure application in the hmm tape"),
            Op::CallSummary { .. } => panic!("interpreter re-entry in the hmm tape"),
            Op::Proj { .. } | Op::MkTuple { .. } => panic!("tuple plumbing in the hmm tape"),
            _ => {}
        }
    }
    assert!(prog.ops.len() <= 5, "hmm tape has {} ops", prog.ops.len());
    assert_eq!(samples, 1, "hmm samples once per tick");
    assert_eq!(observes, 1, "hmm observes once per tick");
    // The driver node embeds `infer` and must stay on the interpreter.
    let main = compiled
        .lower_node("main", options())
        .expect("lower_node runs");
    let reason = main.expect_err("main must not lower");
    assert!(
        reason.contains("nested inference"),
        "unexpected refusal reason: {reason}"
    );
}

/// The robot tracker — the largest committed probabilistic node — also
/// flattens completely, with its conditional GPS observation lowered to
/// branches rather than closure calls, its three `gaussian`s fused into
/// the sample and the two observes, and (with its state split into
/// leaves) no tuple plumbing either; the ceiling leaves no room for the
/// state to come back as one packed slot.
#[test]
fn robot_tracker_tape_is_fully_flattened() {
    let compiled = compile_source_opt(&example("robot.zl")).expect("robot compiles");
    let prog = compiled
        .lower_node("gps_acc_tracker", options())
        .expect("lower_node runs")
        .expect("gps_acc_tracker lowers");
    let count = |f: fn(&Op) -> bool| prog.ops.iter().filter(|op| f(op)).count();
    let samples = count(|op| matches!(op, Op::Sample { .. } | Op::SampleDist { .. }));
    let observes = count(|op| matches!(op, Op::Observe { .. } | Op::ObserveDist { .. }));
    let fused = count(|op| matches!(op, Op::SampleDist { .. } | Op::ObserveDist { .. }));
    assert_eq!(samples, 1, "tracker samples the acceleration once per tick");
    assert_eq!(
        observes, 2,
        "tracker observes the accelerometer and the GPS"
    );
    assert_eq!(
        fused, 3,
        "every tracker distribution is fused into its consumer"
    );
    assert!(
        !prog
            .ops
            .iter()
            .any(|op| matches!(op, Op::Eval { .. } | Op::CallSummary { .. })),
        "tracker tape re-enters the interpreter"
    );
    let plumbing = prog
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Proj { .. } | Op::MkTuple { .. }))
        .count();
    assert!(plumbing <= 2, "tracker tape has {plumbing} plumbing ops");
}
