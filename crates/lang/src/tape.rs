//! Flat instruction tape for µF transition functions.
//!
//! The tree-walking interpreter ([`crate::eval`]) re-traverses the µF AST
//! of the transition closure for every particle at every tick — an
//! overhead of roughly 50× over the native models on small kernels. This
//! module holds the runtime half of the tape backend: a transition
//! closure is lowered once (see [`crate::transform::lower`]) to a
//! preallocated `Vec<Op>` of register-indexed opcodes over a dense
//! register file of [`MufValue`] slots. All names are interned to `u32`
//! register indices during lowering, so the steady state performs zero
//! `HashMap` lookups and zero `Env` clones. The state, the captured
//! environment and the tick input are split into leaf registers, so the
//! tape does no tuple plumbing on them either.
//!
//! What the tape still allocates is measured, not assumed:
//! `tests/tape_alloc.rs` counts every heap allocation of a steady-state
//! `hmm` engine step with a counting global allocator — about 2.5 per
//! particle-tick under PF and 2.2 under SDS, two of them the model's own
//! distribution values (`Value::Dist` is boxed).
//!
//! The interpreter remains the semantic oracle: lowering is
//! total-or-nothing per engine, every opcode mirrors the corresponding
//! `eval` branch bit-for-bit (including error messages and RNG
//! consumption order), and any construct the lowering does not support
//! leaves the engine interpreting, indistinguishable except for speed.

use crate::ast::OpName;
use crate::error::{LangError, Stage};
use crate::eval::{outside_infer, Interp, ModelState, ProbSlot};
use crate::muf::{MufPat, MufValue};
use probzelus_core::prob::ProbCtx;
use probzelus_core::value::Value;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A register index into the tape's dense register file.
pub type Reg = u32;

/// One tape instruction. Registers are read non-destructively (values are
/// cloned out where semantics require ownership), so the same register
/// file is reused by every particle and every tick.
#[derive(Debug, Clone)]
pub enum Op {
    /// `dst <- v` (constant pool; executed once when the tape is built).
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant value.
        v: MufValue,
    },
    /// `dst <- src` (join-point copies for `if` branches).
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Unary operator.
    UnOp {
        /// Operator.
        op: OpName,
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Reg,
    },
    /// Binary operator.
    BinOp {
        /// Operator.
        op: OpName,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Ternary operator (`prob`).
    TernOp {
        /// Operator.
        op: OpName,
        /// Destination register.
        dst: Reg,
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Reg,
        /// Third operand.
        c: Reg,
    },
    /// `dst <- (r1, .., rn)` — materializes a tuple value.
    MkTuple {
        /// Destination register.
        dst: Reg,
        /// Element registers.
        items: Vec<Reg>,
    },
    /// `dst <- src[idx/arity]` — runtime tuple destructuring with the
    /// exact semantics of the interpreter's pattern binding (core pairs
    /// for arity 2, `nil` poison spreading, arity checking).
    Proj {
        /// Destination register.
        dst: Reg,
        /// Tuple register.
        src: Reg,
        /// Element index.
        idx: u32,
        /// Expected tuple arity.
        arity: u32,
    },
    /// Strict conditional value selection (`Select` semantics: `nil`
    /// condition yields `nil`).
    Select {
        /// Destination register.
        dst: Reg,
        /// Condition register.
        cond: Reg,
        /// Then-value register.
        t: Reg,
        /// Else-value register.
        f: Reg,
    },
    /// `dst <- sample(dist)` through the engine's [`ProbCtx`].
    Sample {
        /// Destination register.
        dst: Reg,
        /// Distribution register.
        dist: Reg,
    },
    /// `observe(dist, obs)` through the engine's [`ProbCtx`].
    Observe {
        /// Distribution register.
        dist: Reg,
        /// Observation register.
        obs: Reg,
    },
    /// `factor(w)` through the engine's [`ProbCtx`].
    Factor {
        /// Log-weight register.
        w: Reg,
    },
    /// `dst <- value(src)` — force realization (§5.3).
    Value {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst <- deep_clone(src)` (the µF `Freshen` of compiled `reset`).
    Freshen {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Unconditional jump to an op index.
    Jmp {
        /// Target op index.
        target: u32,
    },
    /// Jump when the condition is false; errors on `nil` exactly like the
    /// lazy `If` form.
    JmpIfNot {
        /// Condition register.
        cond: Reg,
        /// Target op index.
        target: u32,
    },
    /// Out-of-line call to a statically-known closure the lowering chose
    /// not to inline (recursion-depth or op budget): dispatches back into
    /// the interpreter for the callee only.
    CallSummary {
        /// Destination register.
        dst: Reg,
        /// The closure value (stable: resolved from globals at lowering).
        f: MufValue,
        /// Argument register.
        arg: Reg,
    },
    /// Dynamic application of a register-held closure (escapes to the
    /// interpreter, like [`Op::CallSummary`] but with a runtime callee).
    Eval {
        /// Destination register.
        dst: Reg,
        /// Closure register.
        f: Reg,
        /// Argument register.
        arg: Reg,
    },
    /// End of tape.
    Halt,
}

/// Where the tick's output value lives: tuple outputs are kept unpacked
/// in their element registers and folded to nested core pairs only at the
/// very end (mirroring [`MufValue::as_core`]).
#[derive(Debug, Clone)]
pub enum OutSpec {
    /// A single register.
    Reg(Reg),
    /// A tuple of sub-outputs.
    Tuple(Vec<OutSpec>),
}

/// The tuple structure of a value the tape keeps unpacked across leaf
/// registers (the externalized state, a captured environment value, the
/// tick input).
#[derive(Debug, Clone)]
pub enum StateShape {
    /// An opaque leaf, held whole in one register.
    Leaf,
    /// A tuple, one sub-shape per element.
    Node(Vec<StateShape>),
}

impl StateShape {
    /// The shape a pattern destructures.
    pub fn of_pat(p: &MufPat) -> StateShape {
        match p {
            MufPat::Tuple(ps) => StateShape::Node(ps.iter().map(StateShape::of_pat).collect()),
            MufPat::Var(_) | MufPat::Wildcard | MufPat::Unit => StateShape::Leaf,
        }
    }

    /// The full tuple structure of a value (every interpreter tuple is a
    /// node; core pairs, `nil` and everything else are leaves).
    pub fn of_value(v: &MufValue) -> StateShape {
        match v {
            MufValue::Tuple(xs) => StateShape::Node(xs.iter().map(StateShape::of_value).collect()),
            _ => StateShape::Leaf,
        }
    }
}

/// A value held unpacked in leaf registers: depth-first leaves of `shape`.
#[derive(Debug, Clone)]
pub struct Unpacked {
    /// Tuple structure.
    pub shape: StateShape,
    /// One register per leaf.
    pub regs: Vec<Reg>,
}

/// A lowered transition function: the instruction tape plus its register
/// conventions.
///
/// The state is split down to the leaves of [`TapeProgram::shape`] (the
/// state pattern refined by the tuple structure of the initial state).
/// Leaves the tape writes back unchanged and that hold scalar data at
/// init are *pinned*: loaded once into constant registers and never moved.
/// The others are *live slots*, moved into `state_in` before each step and
/// out of `state_out` after it.
#[derive(Debug, Clone)]
pub struct TapeProgram {
    /// Constant pool, run once into the register file when the tape is
    /// installed (every `Const` op lives here; the body never re-executes
    /// them).
    pub consts: Vec<Op>,
    /// The instruction stream, ending in [`Op::Halt`].
    pub ops: Vec<Op>,
    /// Total number of registers.
    pub num_regs: u32,
    /// Leaf registers receiving the tick input (driver-facing
    /// transitions), split along the input pattern.
    pub input: Option<Unpacked>,
    /// Registers the live state slots are moved into before execution.
    pub state_in: Vec<Reg>,
    /// Registers the successor live slots are moved out of after
    /// execution: pairwise distinct, and never a constant or environment
    /// register (those are shared by every particle, so lowering copies
    /// them into a fresh register first).
    pub state_out: Vec<Reg>,
    /// Where the output value lives.
    pub out: OutSpec,
    /// Captured-environment values, split into leaf registers and
    /// refreshed from the engine's closure slot whenever it is rewritten.
    pub env_slots: Vec<(String, Unpacked)>,
    /// The initial live slots.
    pub init_slots: Vec<MufValue>,
    /// Per state leaf: `Some(v)` when the leaf is pinned to the constant
    /// `v`, `None` when it is a live slot.
    pub pinned: Vec<Option<MufValue>>,
    /// State tuple structure.
    pub shape: StateShape,
    /// `Rc::as_ptr` of the lowered closure body — per-tick re-closing
    /// evaluates the same `fun` node, so pointer equality certifies the
    /// tape still matches the installed closure.
    pub body_ptr: usize,
    /// Debug names per register (empty string when unnamed).
    pub reg_names: Vec<String>,
}

/// The shared runtime state of one engine's tape: the program plus the
/// register file every particle reuses (particles run sequentially, so a
/// single file suffices; values are moved in and out per step).
#[derive(Debug)]
pub struct TapeShared {
    /// The lowered program.
    pub prog: TapeProgram,
    regs: RefCell<Vec<MufValue>>,
}

impl TapeShared {
    fn new(prog: TapeProgram) -> TapeShared {
        let mut regs = vec![MufValue::Nil; prog.num_regs as usize];
        for op in &prog.consts {
            if let Op::Const { dst, v } = op {
                regs[*dst as usize] = v.clone();
            }
        }
        TapeShared {
            prog,
            regs: RefCell::new(regs),
        }
    }
}

/// Per-engine lowering cell, shared between a [`crate::eval::MufEngine`]
/// and its particle models (a hoisted prelude has a cell of its own).
/// Lowering happens lazily at the first particle step (after the prelude
/// hook has installed the real per-particle closure) and is attempted
/// exactly once; failure pins the engine to the interpreter.
#[derive(Debug, Default)]
pub struct TapeCell {
    attempt: RefCell<Option<Result<Rc<TapeShared>, String>>>,
    /// The lowered program, kept after a mid-run fallback: states it
    /// split are rejoined along its shape.
    lowered: RefCell<Option<Rc<TapeShared>>>,
    /// Bumped by the engine whenever the closure slot is rewritten.
    epoch: Cell<u64>,
    /// Last epoch whose environment was copied into the register file.
    synced: Cell<u64>,
}

impl TapeCell {
    /// Signals that the engine's closure slot changed (environment
    /// registers must be refreshed before the next execution).
    pub fn bump(&self) {
        self.epoch.set(self.epoch.get().wrapping_add(1));
    }

    /// The installed tape, if lowering has succeeded.
    pub fn ready(&self) -> Option<Rc<TapeShared>> {
        match &*self.attempt.borrow() {
            Some(Ok(shared)) => Some(shared.clone()),
            _ => None,
        }
    }

    /// Human-readable status: `Ok(())` when lowered, `Err(reason)` when
    /// pending or fallen back.
    pub fn status(&self) -> Result<(), String> {
        match &*self.attempt.borrow() {
            None => Err("tape not lowered yet (no step taken)".into()),
            Some(Ok(_)) => Ok(()),
            Some(Err(e)) => Err(e.clone()),
        }
    }

    /// Pins the engine to the interpreter with the given reason (used on
    /// mid-run closure shape changes).
    fn poison(&self, reason: String) {
        *self.attempt.borrow_mut() = Some(Err(reason));
    }

    /// Returns the tape, lowering the current closure on first use.
    /// `None` means this engine executes on the interpreter.
    pub(crate) fn ensure(
        &self,
        interp: &Rc<Interp>,
        closure: &MufValue,
        init_state: &MufValue,
        takes_input: bool,
    ) -> Option<Rc<TapeShared>> {
        let mut attempt = self.attempt.borrow_mut();
        if attempt.is_none() {
            let lowered = match closure {
                MufValue::Closure(c) => {
                    crate::transform::lower::lower_closure(interp, c, init_state, takes_input)
                        .map(|prog| Rc::new(TapeShared::new(prog)))
                }
                other => Err(format!("transition is not a closure: {}", other.kind())),
            };
            if let Ok(shared) = &lowered {
                *self.lowered.borrow_mut() = Some(shared.clone());
                // A fresh register file has never read the environment.
                self.bump();
            }
            *attempt = Some(lowered);
        }
        match attempt.as_ref() {
            Some(Ok(shared)) => Some(shared.clone()),
            _ => None,
        }
    }

    /// Turns a state the tape split back into its whole form, once the
    /// engine runs on the interpreter (after a mid-run fallback).
    pub(crate) fn rejoin(&self, state: &mut ModelState) {
        if let (ModelState::Flat(slots), Some(shared)) = (&mut *state, &*self.lowered.borrow()) {
            let prog = &shared.prog;
            let whole = join_state(std::mem::take(slots), &prog.shape, &prog.pinned);
            *state = ModelState::Whole(whole);
        }
    }

    /// The starting state of a model or prelude run by this cell: live
    /// slots once the tape is installed, the whole value otherwise.
    pub(crate) fn initial_state(cell: Option<&TapeCell>, init_state: &MufValue) -> ModelState {
        match cell.and_then(TapeCell::ready) {
            Some(shared) => ModelState::Flat(
                shared
                    .prog
                    .init_slots
                    .iter()
                    .map(MufValue::deep_clone)
                    .collect(),
            ),
            None => ModelState::Whole(init_state.deep_clone()),
        }
    }
}

/// Visits the leaves of `v` along `shape`, depth first. Only genuine
/// `Tuple` nodes are accepted at interior positions, so the leaves join
/// back to the identical value (bit-for-bit).
fn for_each_leaf<'v>(
    v: &'v MufValue,
    shape: &StateShape,
    f: &mut dyn FnMut(&'v MufValue) -> Result<(), String>,
) -> Result<(), String> {
    match shape {
        StateShape::Leaf => f(v),
        StateShape::Node(children) => match v {
            MufValue::Tuple(xs) if xs.len() == children.len() => {
                for (x, s) in xs.iter().zip(children) {
                    for_each_leaf(x, s, f)?;
                }
                Ok(())
            }
            other => Err(format!(
                "state shape mismatch: expected a {}-tuple, found {}",
                children.len(),
                other.kind()
            )),
        },
    }
}

/// Whether `v` is scalar data (`nil`, unit, a boolean, an integer or a
/// float) — the values a pinned state leaf may hold.
pub(crate) fn is_scalar(v: &MufValue) -> bool {
    matches!(
        v,
        MufValue::Nil | MufValue::V(Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Float(_))
    )
}

/// Bitwise equality of scalar data; `false` for everything else.
pub(crate) fn scalar_eq(a: &MufValue, b: &MufValue) -> bool {
    match (a, b) {
        (MufValue::Nil, MufValue::Nil) => true,
        (MufValue::V(x), MufValue::V(y)) => match (x, y) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(p), Value::Bool(q)) => p == q,
            (Value::Int(p), Value::Int(q)) => p == q,
            (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
            _ => false,
        },
        _ => false,
    }
}

/// Splits a whole state value into its live slots following `shape`.
/// Pinned leaves are not slots: the value there must equal the pinned
/// constant, or the state does not fit the tape.
pub(crate) fn split_state(
    v: &MufValue,
    shape: &StateShape,
    pinned: &[Option<MufValue>],
) -> Result<Vec<MufValue>, String> {
    let mut out = Vec::with_capacity(pinned.iter().filter(|p| p.is_none()).count());
    let mut leaf = 0;
    for_each_leaf(v, shape, &mut |x| {
        match pinned.get(leaf) {
            Some(Some(pin)) if !scalar_eq(pin, x) => {
                return Err(format!("state leaf {leaf} left its pinned value"));
            }
            Some(Some(_)) => {}
            _ => out.push(x.clone()),
        }
        leaf += 1;
        Ok(())
    })?;
    Ok(out)
}

/// Rebuilds the whole state value from live slots and pinned leaves
/// (mid-run interpreter fallback). Inverse of [`split_state`].
fn join_state(slots: Vec<MufValue>, shape: &StateShape, pinned: &[Option<MufValue>]) -> MufValue {
    fn go(
        slots: &mut std::vec::IntoIter<MufValue>,
        pinned: &mut std::slice::Iter<'_, Option<MufValue>>,
        shape: &StateShape,
    ) -> MufValue {
        match shape {
            StateShape::Leaf => match pinned.next() {
                Some(Some(pin)) => pin.clone(),
                _ => slots.next().unwrap_or(MufValue::Nil),
            },
            StateShape::Node(children) => {
                MufValue::Tuple(children.iter().map(|s| go(slots, pinned, s)).collect())
            }
        }
    }
    go(&mut slots.into_iter(), &mut pinned.iter(), shape)
}

/// Writes the leaves of a captured value into their registers.
fn load_unpacked(v: &MufValue, slot: &Unpacked, regs: &mut [MufValue]) -> Result<(), String> {
    let mut dst = slot.regs.iter();
    for_each_leaf(v, &slot.shape, &mut |x| {
        if let Some(&r) = dst.next() {
            regs[r as usize] = x.clone();
        }
        Ok(())
    })
}

/// Writes the leaves of the tick input into their registers, destructuring
/// exactly as the interpreter's pattern binding does on a core value (a
/// pair for every two-element pattern, an error otherwise).
fn load_input(
    v: &Value,
    shape: &StateShape,
    regs: &mut [MufValue],
    dst: &mut std::slice::Iter<'_, Reg>,
) -> Result<(), LangError> {
    match (shape, v) {
        (StateShape::Leaf, _) => {
            if let Some(&r) = dst.next() {
                regs[r as usize] = MufValue::V(v.clone());
            }
            Ok(())
        }
        (StateShape::Node(children), Value::Pair(a, b)) if children.len() == 2 => {
            load_input(a, &children[0], regs, dst)?;
            load_input(b, &children[1], regs, dst)
        }
        (StateShape::Node(_), _) => Err(LangError::new(Stage::Eval, "cannot destructure a value")),
    }
}

/// Outcome of a tape step: either the tick output, or an instruction to
/// fall back to the interpreter for this and all future ticks (the
/// installed closure no longer matches the lowered body).
pub(crate) enum TapeStep<T> {
    Done(T),
    FallBack,
}

/// Copies the captured environment of `closure` into the env-slot
/// registers. `false` (and a poisoned cell) when the closure no longer
/// matches the lowered body or a captured value changed shape.
fn sync_env(cell: &TapeCell, shared: &TapeShared, closure: &MufValue) -> bool {
    let prog = &shared.prog;
    let MufValue::Closure(c) = closure else {
        cell.poison(format!(
            "transition became a non-closure: {}",
            closure.kind()
        ));
        return false;
    };
    if Rc::as_ptr(&c.body) as usize != prog.body_ptr {
        cell.poison("transition closure changed shape mid-run".into());
        return false;
    }
    let mut regs = shared.regs.borrow_mut();
    for (name, env) in &prog.env_slots {
        let Some(v) = c.env.lookup(name) else {
            cell.poison(format!("captured variable `{name}` disappeared"));
            return false;
        };
        if let Err(e) = load_unpacked(v, env, &mut regs) {
            cell.poison(format!("captured variable `{name}` changed shape: {e}"));
            return false;
        }
    }
    true
}

/// One particle step on the tape. Mirrors `MufModel::step`'s interpreter
/// path: live state slots move into their registers, the tape executes,
/// the output is folded to a core value, and the successor slots move
/// back out.
pub(crate) fn step_model(
    interp: &Rc<Interp>,
    cell: &TapeCell,
    shared: &TapeShared,
    closure_slot: &RefCell<MufValue>,
    state: &mut ModelState,
    ctx: &mut dyn ProbCtx,
    input: &Value,
) -> Result<TapeStep<Value>, LangError> {
    // Refresh captured-environment registers when the closure slot was
    // rewritten since the last sync (every tick for re-closing `infer`
    // sites; once for driver engines with a static closure).
    if cell.synced.get() != cell.epoch.get() {
        if !sync_env(cell, shared, &closure_slot.borrow()) {
            return Ok(TapeStep::FallBack);
        }
        cell.synced.set(cell.epoch.get());
    }
    run(
        interp,
        cell,
        shared,
        state,
        &mut ProbSlot::Prob(ctx),
        input,
        fold_out,
    )
}

/// One deterministic prelude tick on the tape: like [`step_model`]
/// outside any inference context, with the output kept a µF value (it
/// is the argument of the wrap function). The environment is re-read on
/// every tick, since engine clones share the cell but not the closure.
pub(crate) fn step_prelude(
    interp: &Rc<Interp>,
    cell: &TapeCell,
    shared: &TapeShared,
    transition: &MufValue,
    state: &mut ModelState,
    input: &Value,
) -> Result<TapeStep<MufValue>, LangError> {
    if !sync_env(cell, shared, transition) {
        return Ok(TapeStep::FallBack);
    }
    run(
        interp,
        cell,
        shared,
        state,
        &mut ProbSlot::Det,
        input,
        fold_out_muf,
    )
}

fn run<T>(
    interp: &Rc<Interp>,
    cell: &TapeCell,
    shared: &TapeShared,
    state: &mut ModelState,
    prob: &mut ProbSlot<'_>,
    input: &Value,
    fold: fn(&OutSpec, &[MufValue]) -> Result<T, LangError>,
) -> Result<TapeStep<T>, LangError> {
    let prog = &shared.prog;
    // First tape step: split the whole state into live slots.
    if let ModelState::Whole(whole) = &*state {
        match split_state(whole, &prog.shape, &prog.pinned) {
            Ok(slots) => *state = ModelState::Flat(slots),
            Err(e) => {
                cell.poison(format!("state does not fit the tape shape: {e}"));
                return Ok(TapeStep::FallBack);
            }
        }
    }
    let ModelState::Flat(slots) = state else {
        return Err(LangError::new(Stage::Eval, "tape state must be flat"));
    };
    let mut regs = shared.regs.borrow_mut();
    if let Some(inp) = &prog.input {
        load_input(input, &inp.shape, &mut regs, &mut inp.regs.iter())?;
    }
    for (slot, &r) in slots.iter_mut().zip(&prog.state_in) {
        regs[r as usize] = std::mem::replace(slot, MufValue::Nil);
    }
    exec(interp, prog, &mut regs, prob)?;
    // Fold the output before moving state out: an output register may
    // alias a state register.
    let out = fold(&prog.out, &regs)?;
    for (slot, &r) in slots.iter_mut().zip(&prog.state_out) {
        *slot = std::mem::replace(&mut regs[r as usize], MufValue::Nil);
    }
    Ok(TapeStep::Done(out))
}

/// Folds an [`OutSpec`] to a µF value (tuples stay interpreter tuples).
fn fold_out_muf(spec: &OutSpec, regs: &[MufValue]) -> Result<MufValue, LangError> {
    Ok(match spec {
        OutSpec::Reg(r) => regs[*r as usize].clone(),
        OutSpec::Tuple(items) => MufValue::Tuple(
            items
                .iter()
                .map(|s| fold_out_muf(s, regs))
                .collect::<Result<_, _>>()?,
        ),
    })
}

/// Folds an [`OutSpec`] to a core value, mirroring [`MufValue::as_core`]
/// (tuples become right-nested pairs).
fn fold_out(spec: &OutSpec, regs: &[MufValue]) -> Result<Value, LangError> {
    match spec {
        OutSpec::Reg(r) => regs[*r as usize].as_core(),
        OutSpec::Tuple(items) => {
            let parts: Vec<Value> = items
                .iter()
                .map(|s| fold_out(s, regs))
                .collect::<Result<_, _>>()?;
            Ok(parts
                .into_iter()
                .rev()
                .reduce(|acc, v| Value::pair(v, acc))
                .unwrap_or(Value::Unit))
        }
    }
}

/// Runs the instruction stream. Every opcode matches the corresponding
/// `Interp::eval` branch exactly — same evaluation order, same error
/// messages, same RNG draws — so posteriors agree bit-for-bit with the
/// interpreter.
fn exec(
    interp: &Rc<Interp>,
    prog: &TapeProgram,
    regs: &mut [MufValue],
    prob: &mut ProbSlot<'_>,
) -> Result<(), LangError> {
    let ops = &prog.ops;
    let mut pc = 0usize;
    while pc < ops.len() {
        match &ops[pc] {
            Op::Halt => break,
            Op::Const { dst, v } => regs[*dst as usize] = v.clone(),
            Op::Move { dst, src } => regs[*dst as usize] = regs[*src as usize].clone(),
            Op::UnOp { op, dst, a } => {
                let v = interp.eval_op_ref(*op, &[&regs[*a as usize]], prob)?;
                regs[*dst as usize] = v;
            }
            Op::BinOp { op, dst, a, b } => {
                let v = interp.eval_op_ref(*op, &[&regs[*a as usize], &regs[*b as usize]], prob)?;
                regs[*dst as usize] = v;
            }
            Op::TernOp { op, dst, a, b, c } => {
                let v = interp.eval_op_ref(
                    *op,
                    &[&regs[*a as usize], &regs[*b as usize], &regs[*c as usize]],
                    prob,
                )?;
                regs[*dst as usize] = v;
            }
            Op::MkTuple { dst, items } => {
                let v = MufValue::Tuple(items.iter().map(|&r| regs[r as usize].clone()).collect());
                regs[*dst as usize] = v;
            }
            Op::Proj {
                dst,
                src,
                idx,
                arity,
            } => {
                let v = project(&regs[*src as usize], *idx, *arity)?;
                regs[*dst as usize] = v;
            }
            Op::Select { dst, cond, t, f } => {
                let c = regs[*cond as usize].clone();
                let v = match interp.condition_value(c, prob)? {
                    None => MufValue::Nil,
                    Some(true) => regs[*t as usize].clone(),
                    Some(false) => regs[*f as usize].clone(),
                };
                regs[*dst as usize] = v;
            }
            Op::Sample { dst, dist } => {
                let d = dist_of(&regs[*dist as usize])?;
                let ProbSlot::Prob(ctx) = prob else {
                    return Err(outside_infer("sample"));
                };
                let v = ctx.sample(d)?;
                regs[*dst as usize] = MufValue::V(v);
            }
            Op::Observe { dist, obs } => {
                let d = dist_of(&regs[*dist as usize])?;
                let o = regs[*obs as usize].as_core()?;
                let ProbSlot::Prob(ctx) = prob else {
                    return Err(outside_infer("observe"));
                };
                ctx.observe(d, &o)?;
            }
            Op::Factor { w } => {
                let v = regs[*w as usize].as_core()?;
                let ProbSlot::Prob(ctx) = prob else {
                    return Err(outside_infer("factor"));
                };
                let v = ctx.force(&v)?;
                ctx.factor(v.as_float()?);
            }
            Op::Value { dst, src } => {
                let v = regs[*src as usize].as_core()?;
                let ProbSlot::Prob(ctx) = prob else {
                    return Err(outside_infer("value"));
                };
                let v = ctx.force(&v)?;
                regs[*dst as usize] = MufValue::V(v);
            }
            Op::Freshen { dst, src } => {
                regs[*dst as usize] = regs[*src as usize].deep_clone();
            }
            Op::Jmp { target } => {
                pc = *target as usize;
                continue;
            }
            Op::JmpIfNot { cond, target } => {
                let c = regs[*cond as usize].clone();
                match interp.condition_value(c, prob)? {
                    None => {
                        return Err(LangError::new(
                            Stage::Eval,
                            "uninitialized condition; guard delays with `->`",
                        ));
                    }
                    Some(true) => {}
                    Some(false) => {
                        pc = *target as usize;
                        continue;
                    }
                }
            }
            Op::CallSummary { dst, f, arg } => {
                let a = regs[*arg as usize].clone();
                let v = interp.apply(f, a, prob)?;
                regs[*dst as usize] = v;
            }
            Op::Eval { dst, f, arg } => {
                let fv = regs[*f as usize].clone();
                let a = regs[*arg as usize].clone();
                let v = interp.apply(&fv, a, prob)?;
                regs[*dst as usize] = v;
            }
        }
        pc += 1;
    }
    Ok(())
}

/// Runtime tuple projection with the interpreter's pattern-binding
/// semantics (core pairs at arity 2, `nil` spreads, arity checking).
fn project(v: &MufValue, idx: u32, arity: u32) -> Result<MufValue, LangError> {
    match v {
        MufValue::Tuple(xs) => {
            if xs.len() != arity as usize {
                return Err(LangError::new(
                    Stage::Eval,
                    format!(
                        "tuple arity mismatch: pattern {} vs value {}",
                        arity,
                        xs.len()
                    ),
                ));
            }
            Ok(xs[idx as usize].clone())
        }
        MufValue::V(Value::Pair(a, b)) if arity == 2 => Ok(MufValue::V(if idx == 0 {
            (**a).clone()
        } else {
            (**b).clone()
        })),
        MufValue::Nil => Ok(MufValue::Nil),
        other => Err(LangError::new(
            Stage::Eval,
            format!("cannot destructure a {}", other.kind()),
        )),
    }
}

/// Resolves a register to a distribution, mirroring `Interp::eval_dist`.
fn dist_of(v: &MufValue) -> Result<&probzelus_core::value::DistExpr, LangError> {
    match v {
        MufValue::V(Value::Dist(d)) => Ok(d),
        MufValue::Nil => Err(LangError::new(
            Stage::Eval,
            "uninitialized distribution; guard delays with `->`",
        )),
        other => Err(LangError::new(
            Stage::Eval,
            format!("expected a distribution, found {}", other.kind()),
        )),
    }
}

impl TapeProgram {
    /// Pretty-prints the tape (the `pzc emit --tape` rendering and the
    /// golden-test surface). The format is stable: header, environment
    /// and state register conventions, constant pool, then one line per
    /// op as `NNNN mnemonic  dst <- operands`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let regs = |rs: &[Reg]| -> String {
            rs.iter()
                .map(|r| format!("r{r}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let _ = writeln!(
            s,
            "regs: {}  ops: {}  state: {} slot(s), {} pinned",
            self.num_regs,
            self.ops.len(),
            self.state_in.len(),
            self.pinned.iter().filter(|p| p.is_some()).count()
        );
        if let Some(inp) = &self.input {
            let _ = writeln!(s, "input: {}", regs(&inp.regs));
        }
        for (name, env) in &self.env_slots {
            let _ = writeln!(s, "env: {name} -> {}", regs(&env.regs));
        }
        let _ = writeln!(s, "state_in: {}", regs(&self.state_in));
        let _ = writeln!(s, "state_out: {}", regs(&self.state_out));
        let _ = writeln!(s, "out: {}", render_out(&self.out));
        for op in &self.consts {
            if let Op::Const { dst, v } = op {
                let _ = writeln!(s, "const r{dst} <- {}", render_value(v));
            }
        }
        for (i, op) in self.ops.iter().enumerate() {
            let _ = writeln!(s, "{i:04} {}", render_op(op, &self.reg_names));
        }
        s
    }
}

fn render_out(spec: &OutSpec) -> String {
    match spec {
        OutSpec::Reg(r) => format!("r{r}"),
        OutSpec::Tuple(items) => {
            let parts: Vec<String> = items.iter().map(render_out).collect();
            format!("({})", parts.join(", "))
        }
    }
}

fn render_value(v: &MufValue) -> String {
    match v {
        MufValue::V(val) => format!("{val:?}"),
        MufValue::Nil => "nil".into(),
        MufValue::Tuple(xs) => format!("tuple[{}]", xs.len()),
        MufValue::Closure(_) => "closure".into(),
        MufValue::Engine(_) => "engine".into(),
        MufValue::Posterior(_) => "posterior".into(),
    }
}

fn render_op(op: &Op, names: &[String]) -> String {
    let named = |r: Reg| -> String {
        match names.get(r as usize) {
            Some(n) if !n.is_empty() => format!("r{r}({n})"),
            _ => format!("r{r}"),
        }
    };
    match op {
        Op::Const { dst, v } => format!("const       {} <- {}", named(*dst), render_value(v)),
        Op::Move { dst, src } => format!("move        {} <- {}", named(*dst), named(*src)),
        Op::UnOp { op, dst, a } => {
            format!("unop.{:<6} {} <- {}", mnemonic(*op), named(*dst), named(*a))
        }
        Op::BinOp { op, dst, a, b } => format!(
            "binop.{:<5} {} <- {}, {}",
            mnemonic(*op),
            named(*dst),
            named(*a),
            named(*b)
        ),
        Op::TernOp { op, dst, a, b, c } => format!(
            "ternop.{:<4} {} <- {}, {}, {}",
            mnemonic(*op),
            named(*dst),
            named(*a),
            named(*b),
            named(*c)
        ),
        Op::MkTuple { dst, items } => {
            let parts: Vec<String> = items.iter().map(|&r| named(r)).collect();
            format!("mk_tuple    {} <- ({})", named(*dst), parts.join(", "))
        }
        Op::Proj {
            dst,
            src,
            idx,
            arity,
        } => format!(
            "proj        {} <- {}[{idx}/{arity}]",
            named(*dst),
            named(*src)
        ),
        Op::Select { dst, cond, t, f } => format!(
            "select      {} <- {} ? {} : {}",
            named(*dst),
            named(*cond),
            named(*t),
            named(*f)
        ),
        Op::Sample { dst, dist } => format!("sample      {} <- {}", named(*dst), named(*dist)),
        Op::Observe { dist, obs } => format!("observe     {}, {}", named(*dist), named(*obs)),
        Op::Factor { w } => format!("factor      {}", named(*w)),
        Op::Value { dst, src } => format!("value       {} <- {}", named(*dst), named(*src)),
        Op::Freshen { dst, src } => format!("freshen     {} <- {}", named(*dst), named(*src)),
        Op::Jmp { target } => format!("jmp         @{target:04}"),
        Op::JmpIfNot { cond, target } => {
            format!("jmp_if_not  {} @{target:04}", named(*cond))
        }
        Op::CallSummary { dst, arg, .. } => {
            format!("call_summary {} <- closure({})", named(*dst), named(*arg))
        }
        Op::Eval { dst, f, arg } => {
            format!(
                "eval        {} <- {}({})",
                named(*dst),
                named(*f),
                named(*arg)
            )
        }
        Op::Halt => "halt".into(),
    }
}

fn mnemonic(op: OpName) -> String {
    format!("{op:?}").to_lowercase()
}
