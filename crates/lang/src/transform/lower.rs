//! Lowering µF transition closures to the flat instruction tape of
//! [`crate::tape`].
//!
//! Lowering is a compile-time abstract interpretation of the closure
//! body: every expression evaluates to a [`Place`] — a register, a
//! compile-time tuple of places (tuples stay unpacked until something
//! forces a value), or a statically-known global closure. Beta-redexes
//! and calls to global closures are inlined, so the per-particle tape for
//! a compiled node is one straight-line instruction stream with jumps
//! only for `if`. Names are resolved entirely at lowering time: lexical
//! binders become places, captured-environment names become registered
//! env slots (refreshed when the engine rewrites its closure slot), and
//! globals are resolved once — the steady state does zero name lookups
//! and zero `Env` operations. The state, captured tuples and the tick
//! input enter as tuples of leaf registers (see [`lower_closure`]), so
//! projecting them and packing the successor state are register renames.
//! A few passes over the finished tape (copy propagation, pinning of
//! unchanged state leaves, copies for shared successor registers,
//! dead-register elimination, renumbering) close the lowering.
//!
//! Lowering is conservative: any construct whose tape semantics could
//! diverge from the interpreter (escaping closures, nested inference,
//! arity surprises) aborts with a reason, and the engine simply keeps
//! interpreting. The evaluation order of emitted ops mirrors the
//! interpreter's recursion exactly, so effects (sampling, observation,
//! RNG consumption) happen in the same sequence bit-for-bit.

use crate::ast::OpName;
use crate::eval::{const_value, Interp};
use crate::muf::{Closure, Env, MufExpr, MufPat, MufValue};
use crate::tape::{
    is_scalar, scalar_eq, split_state, Op, OutSpec, Reg, StateShape, TapeProgram, Unpacked,
};
use std::collections::HashSet;
use std::rc::Rc;

/// Inlining recursion limit: deeper call chains go through
/// [`Op::CallSummary`] instead (compiled programs are non-recursive, so
/// this is a safety net for hand-written µF).
const MAX_INLINE_DEPTH: u32 = 64;
/// Hard cap on tape length; beyond it the whole engine falls back.
const MAX_OPS: usize = 50_000;

type LowerResult<T> = Result<T, String>;

/// Compile-time value descriptor.
#[derive(Clone)]
enum Place {
    /// Lives in a register at runtime.
    Reg(Reg),
    /// A tuple kept unpacked in element places.
    Tuple(Vec<Place>),
    /// A statically-known closure (from the immutable globals).
    Global(MufValue),
}

enum ScopeEntry {
    Bind(String, Place),
    /// Lexical barrier at an inlined global's body: names beyond it
    /// resolve through globals only (inlining requires the callee's
    /// captured environment to be empty).
    Boundary,
}

struct Lower<'a> {
    interp: &'a Rc<Interp>,
    /// The lowered closure's captured environment (its values fix the
    /// leaf structure of each env slot; the values themselves are re-read
    /// into env-slot registers at runtime).
    captured: &'a Env,
    ops: Vec<Op>,
    consts: Vec<Op>,
    scope: Vec<ScopeEntry>,
    env_slots: Vec<(String, Unpacked, Place)>,
    /// Globals already interned into the constant pool: `(name, reg)`.
    global_regs: Vec<(String, Reg)>,
    reg_names: Vec<String>,
    next_reg: Reg,
    depth: u32,
    /// Paths of state nodes refined from the initial value whose
    /// successor is register-held: they must stay opaque leaves.
    demote: Vec<Vec<u32>>,
}

impl Lower<'_> {
    fn fresh(&mut self, name: &str) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        self.reg_names.push(name.to_string());
        r
    }

    fn emit(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// A constant register. Scalar constants are interned, so equal
    /// literals share one register.
    fn const_reg(&mut self, v: MufValue, name: &str) -> Reg {
        if is_scalar(&v) {
            let hit = self.consts.iter().find_map(|op| match op {
                Op::Const { dst, v: c } if scalar_eq(c, &v) => Some(*dst),
                _ => None,
            });
            if let Some(r) = hit {
                return r;
            }
        }
        let r = self.fresh(name);
        self.consts.push(Op::Const { dst: r, v });
        r
    }

    /// Name resolution, mirroring the interpreter's order: lexical scope,
    /// then the closure's captured environment, then globals.
    fn resolve(&mut self, name: &str) -> LowerResult<Place> {
        let mut hit_boundary = false;
        let mut found: Option<Place> = None;
        for e in self.scope.iter().rev() {
            match e {
                ScopeEntry::Bind(n, p) if n == name => {
                    found = Some(p.clone());
                    break;
                }
                ScopeEntry::Boundary => {
                    hit_boundary = true;
                    break;
                }
                ScopeEntry::Bind(..) => {}
            }
        }
        if let Some(p) = found {
            return Ok(p);
        }
        if !hit_boundary {
            if let Some(v) = self.captured.lookup(name) {
                if let Some((_, _, p)) = self.env_slots.iter().find(|(n, ..)| n == name) {
                    return Ok(p.clone());
                }
                // Captured tuples are split into leaf registers, like the
                // state; the runtime re-checks the shape at every sync.
                let shape = StateShape::of_value(v);
                let mut regs = Vec::new();
                let place = self.leaf_places(&shape, None, name, &mut regs);
                self.env_slots
                    .push((name.to_string(), Unpacked { shape, regs }, place.clone()));
                return Ok(place);
            }
        }
        match self.interp.global(name) {
            Some(v @ MufValue::Closure(_)) => Ok(Place::Global(v)),
            Some(v) => {
                if let Some((_, r)) = self.global_regs.iter().find(|(n, _)| n == name) {
                    return Ok(Place::Reg(*r));
                }
                let r = self.const_reg(v, name);
                self.global_regs.push((name.to_string(), r));
                Ok(Place::Reg(r))
            }
            None => Err(format!("unbound variable `{name}`")),
        }
    }

    /// Forces a place into a single register (emitting `MkTuple` for
    /// unpacked tuples, interning global closures as constants).
    fn materialize(&mut self, p: &Place, name: &str) -> LowerResult<Reg> {
        match p {
            Place::Reg(r) => Ok(*r),
            Place::Tuple(items) => {
                let regs: Vec<Reg> = items
                    .iter()
                    .map(|i| self.materialize(i, name))
                    .collect::<Result<_, _>>()?;
                let dst = self.fresh(name);
                self.emit(Op::MkTuple { dst, items: regs });
                Ok(dst)
            }
            Place::Global(v) => Ok(self.const_reg(v.clone(), name)),
        }
    }

    fn move_into(&mut self, dst: Reg, p: &Place) -> LowerResult<()> {
        let src = self.materialize(p, "join")?;
        if src != dst {
            self.emit(Op::Move { dst, src });
        }
        Ok(())
    }

    /// The place an `if` yields, given its branch places: the tuple
    /// structure both branches share stays unpacked, a leaf both branches
    /// hold in the same register (or the same global) needs no join, and
    /// every other position gets a join register, recorded in `joins`
    /// with the branch places to move into it.
    fn join_place(&mut self, t: &Place, f: &Place, joins: &mut Vec<(Reg, Place, Place)>) -> Place {
        match (t, f) {
            (Place::Tuple(ts), Place::Tuple(fs)) if ts.len() == fs.len() => Place::Tuple(
                ts.iter()
                    .zip(fs)
                    .map(|(t, f)| self.join_place(t, f, joins))
                    .collect(),
            ),
            (Place::Reg(a), Place::Reg(b)) if a == b => Place::Reg(*a),
            (Place::Global(MufValue::Closure(a)), Place::Global(MufValue::Closure(b)))
                if Rc::ptr_eq(a, b) =>
            {
                t.clone()
            }
            _ => {
                let dst = self.fresh("if");
                joins.push((dst, t.clone(), f.clone()));
                Place::Reg(dst)
            }
        }
    }

    /// Compile-time pattern binding. Tuple patterns against tuple places
    /// bind element-wise with zero ops; against a register they emit
    /// runtime `Proj`s (whose semantics mirror the interpreter's
    /// `bind_pattern`, including `nil` spreading and core pairs).
    fn bind_pat(&mut self, pat: &MufPat, place: Place) -> LowerResult<()> {
        match (pat, place) {
            (MufPat::Wildcard, _) | (MufPat::Unit, _) => Ok(()),
            (MufPat::Var(x), p) => {
                self.scope.push(ScopeEntry::Bind(x.clone(), p));
                Ok(())
            }
            (MufPat::Tuple(ps), Place::Tuple(items)) => {
                if ps.len() != items.len() {
                    return Err(format!(
                        "tuple arity mismatch: pattern {} vs value {}",
                        ps.len(),
                        items.len()
                    ));
                }
                for (p, i) in ps.iter().zip(items) {
                    self.bind_pat(p, i)?;
                }
                Ok(())
            }
            (MufPat::Tuple(ps), Place::Reg(src)) => {
                let arity = ps.len() as u32;
                for (i, p) in ps.iter().enumerate() {
                    let dst = self.fresh(&pat_name(p));
                    self.emit(Op::Proj {
                        dst,
                        src,
                        idx: i as u32,
                        arity,
                    });
                    self.bind_pat(p, Place::Reg(dst))?;
                }
                Ok(())
            }
            (MufPat::Tuple(_), Place::Global(_)) => Err("cannot destructure a closure".into()),
        }
    }

    fn lower(&mut self, e: &MufExpr) -> LowerResult<Place> {
        if self.ops.len() > MAX_OPS {
            return Err(format!("op budget exceeded ({MAX_OPS})"));
        }
        match e {
            MufExpr::Const(c) => Ok(Place::Reg(self.const_reg(const_value(c), "const"))),
            MufExpr::Var(x) => self.resolve(x),
            MufExpr::Tuple(xs) => Ok(Place::Tuple(
                xs.iter().map(|x| self.lower(x)).collect::<Result<_, _>>()?,
            )),
            MufExpr::Op(op, args) => self.lower_op(*op, args),
            MufExpr::If(c, t, f) => {
                let pc = self.lower(c)?;
                let cond = self.materialize(&pc, "cond")?;
                let jfalse = self.ops.len();
                self.emit(Op::JmpIfNot { cond, target: 0 });
                let save = self.scope.len();
                let pt = self.lower(t)?;
                self.scope.truncate(save);
                let jthen = self.ops.len();
                self.emit(Op::Jmp { target: 0 });
                self.patch(jfalse, self.ops.len());
                let pf = self.lower(f)?;
                self.scope.truncate(save);
                // The else branch fills its join registers in place; the
                // then branch jumps over it to fill its own.
                let mut joins = Vec::new();
                let out = self.join_place(&pt, &pf, &mut joins);
                if joins.is_empty() {
                    self.patch(jthen, self.ops.len());
                    return Ok(out);
                }
                for (dst, _, pf) in &joins {
                    self.move_into(*dst, pf)?;
                }
                let jend = self.ops.len();
                self.emit(Op::Jmp { target: 0 });
                self.patch(jthen, self.ops.len());
                for (dst, pt, _) in &joins {
                    self.move_into(*dst, pt)?;
                }
                self.patch(jend, self.ops.len());
                Ok(out)
            }
            MufExpr::Select(c, t, f) => {
                let pc = self.lower(c)?;
                let pt = self.lower(t)?;
                let pf = self.lower(f)?;
                let cond = self.materialize(&pc, "cond")?;
                let t = self.materialize(&pt, "then")?;
                let f = self.materialize(&pf, "else")?;
                let dst = self.fresh("select");
                self.emit(Op::Select { dst, cond, t, f });
                Ok(Place::Reg(dst))
            }
            MufExpr::App(f, a) => self.lower_app(f, a),
            MufExpr::Let(pat, bound, body) => {
                let pb = self.lower(bound)?;
                let save = self.scope.len();
                self.bind_pat(pat, pb)?;
                let out = self.lower(body);
                self.scope.truncate(save);
                out
            }
            MufExpr::Fun(..) => Err("a closure escapes to a value position".into()),
            MufExpr::Sample(d) => {
                let pd = self.lower(d)?;
                let dist = self.materialize(&pd, "dist")?;
                let dst = self.fresh("sample");
                self.emit(Op::Sample { dst, dist });
                Ok(Place::Reg(dst))
            }
            MufExpr::Observe(d, o) => {
                let pd = self.lower(d)?;
                let dist = self.materialize(&pd, "dist")?;
                let po = self.lower(o)?;
                let obs = self.materialize(&po, "obs")?;
                self.emit(Op::Observe { dist, obs });
                Ok(Place::Reg(self.const_reg(MufValue::unit(), "unit")))
            }
            MufExpr::Factor(w) => {
                let pw = self.lower(w)?;
                let w = self.materialize(&pw, "weight")?;
                self.emit(Op::Factor { w });
                Ok(Place::Reg(self.const_reg(MufValue::unit(), "unit")))
            }
            MufExpr::ValueOp(x) => {
                let px = self.lower(x)?;
                let src = self.materialize(&px, "value")?;
                let dst = self.fresh("value");
                self.emit(Op::Value { dst, src });
                Ok(Place::Reg(dst))
            }
            MufExpr::Freshen(inner) => {
                let p = self.lower(inner)?;
                self.freshen_place(&p)
            }
            MufExpr::Infer { .. } | MufExpr::EngineInit { .. } => {
                Err("nested inference in particle code".into())
            }
        }
    }

    fn lower_op(&mut self, op: OpName, args: &[MufExpr]) -> LowerResult<Place> {
        let places: Vec<Place> = args
            .iter()
            .map(|a| self.lower(a))
            .collect::<Result<_, _>>()?;
        // Projections on syntactic tuples — the interpreter's tuple fast
        // path, resolved at lowering time (a tuple place is never `nil`
        // itself, so the poison check cannot fire first).
        if matches!(op, OpName::Fst | OpName::Snd) && places.len() == 1 {
            if let Place::Tuple(items) = &places[0] {
                return match (op, items.len()) {
                    (OpName::Fst, n) if n >= 1 => Ok(items[0].clone()),
                    (OpName::Snd, 2) => Ok(items[1].clone()),
                    (OpName::Snd, n) if n > 2 => Ok(Place::Tuple(items[1..].to_vec())),
                    _ => Err("projection from empty tuple".into()),
                };
            }
        }
        let regs: Vec<Reg> = places
            .iter()
            .map(|p| self.materialize(p, "arg"))
            .collect::<Result<_, _>>()?;
        let dst = self.fresh(&format!("{op:?}").to_lowercase());
        match regs.as_slice() {
            [a] => self.emit(Op::UnOp { op, dst, a: *a }),
            [a, b] => self.emit(Op::BinOp {
                op,
                dst,
                a: *a,
                b: *b,
            }),
            [a, b, c] => self.emit(Op::TernOp {
                op,
                dst,
                a: *a,
                b: *b,
                c: *c,
            }),
            _ => return Err(format!("operator {op:?} with {} arguments", regs.len())),
        }
        Ok(Place::Reg(dst))
    }

    fn lower_app(&mut self, f: &MufExpr, a: &MufExpr) -> LowerResult<Place> {
        // Beta-redex: bind the argument's places straight into scope (the
        // closure would capture exactly the current environment, so the
        // binding is lexically transparent).
        if let MufExpr::Fun(pat, body) = f {
            let pa = self.lower(a)?;
            let save = self.scope.len();
            self.bind_pat(pat, pa)?;
            let out = self.lower(body);
            self.scope.truncate(save);
            return out;
        }
        let pf = self.lower(f)?;
        let pa = self.lower(a)?;
        match pf {
            Place::Global(v) => self.inline_or_call(v, pa),
            Place::Reg(r) => {
                let arg = self.materialize(&pa, "arg")?;
                let dst = self.fresh("eval");
                self.emit(Op::Eval { dst, f: r, arg });
                Ok(Place::Reg(dst))
            }
            Place::Tuple(_) => Err("cannot apply a tuple".into()),
        }
    }

    fn inline_or_call(&mut self, v: MufValue, pa: Place) -> LowerResult<Place> {
        let MufValue::Closure(c) = &v else {
            return Err(format!("cannot apply a {}", v.kind()));
        };
        if c.env.is_empty() && self.depth < MAX_INLINE_DEPTH {
            let (pat, body) = (c.pat.clone(), Rc::clone(&c.body));
            self.depth += 1;
            let save = self.scope.len();
            self.scope.push(ScopeEntry::Boundary);
            let out = self.bind_pat(&pat, pa).and_then(|()| self.lower(&body));
            self.scope.truncate(save);
            self.depth -= 1;
            out
        } else {
            // Not inlinable (captured environment, or too deep): call
            // back into the interpreter for this callee only. The closure
            // value is stable — it came from the immutable globals.
            let arg = self.materialize(&pa, "arg")?;
            let dst = self.fresh("call");
            self.emit(Op::CallSummary { dst, f: v, arg });
            Ok(Place::Reg(dst))
        }
    }

    fn freshen_place(&mut self, p: &Place) -> LowerResult<Place> {
        match p {
            Place::Reg(src) => {
                let dst = self.fresh("fresh");
                self.emit(Op::Freshen { dst, src: *src });
                Ok(Place::Reg(dst))
            }
            Place::Tuple(items) => Ok(Place::Tuple(
                items
                    .iter()
                    .map(|i| self.freshen_place(i))
                    .collect::<Result<_, _>>()?,
            )),
            // Closures deep-clone to themselves.
            Place::Global(v) => Ok(Place::Global(v.clone())),
        }
    }

    fn patch(&mut self, at: usize, target: usize) {
        if let Op::Jmp { target: t } | Op::JmpIfNot { target: t, .. } = &mut self.ops[at] {
            *t = target as u32;
        }
    }

    /// Allocates one register per leaf of `shape` and returns the place
    /// that keeps the value unpacked across them. Registers take the
    /// pattern's names where it has them, else `base` plus the leaf path.
    fn leaf_places(
        &mut self,
        shape: &StateShape,
        pat: Option<&MufPat>,
        base: &str,
        regs: &mut Vec<Reg>,
    ) -> Place {
        let base = match pat {
            Some(MufPat::Var(x)) => x.as_str(),
            _ => base,
        };
        match shape {
            StateShape::Leaf => {
                let r = self.fresh(base);
                regs.push(r);
                Place::Reg(r)
            }
            StateShape::Node(children) => {
                let pats = match pat {
                    Some(MufPat::Tuple(ps)) => Some(ps),
                    _ => None,
                };
                Place::Tuple(
                    children
                        .iter()
                        .enumerate()
                        .map(|(i, ch)| {
                            let sub = pats.and_then(|ps| ps.get(i));
                            self.leaf_places(ch, sub, &format!("{base}.{i}"), regs)
                        })
                        .collect(),
                )
            }
        }
    }

    fn out_spec(&mut self, p: &Place) -> LowerResult<OutSpec> {
        match p {
            Place::Reg(r) => Ok(OutSpec::Reg(*r)),
            Place::Tuple(items) => Ok(OutSpec::Tuple(
                items
                    .iter()
                    .map(|i| self.out_spec(i))
                    .collect::<Result<_, _>>()?,
            )),
            Place::Global(_) => Err("a closure reaches the output".into()),
        }
    }

    /// Assigns the successor-state place to leaf out-registers following
    /// the state shape. A register-held subtree at a node the state
    /// pattern destructures is split with runtime `Proj`s (the pattern
    /// spreads `nil` the same way next tick). At a node refined from the
    /// initial value the runtime value could be `nil` rather than a tuple,
    /// so the node is recorded in `demote` and must stay a leaf.
    fn bind_state_out(
        &mut self,
        p: &Place,
        shape: &StateShape,
        pat: Option<&StateShape>,
        path: &mut Vec<u32>,
    ) -> LowerResult<Vec<Reg>> {
        let pat_children = match pat {
            Some(StateShape::Node(ps)) => Some(ps),
            _ => None,
        };
        match (p, shape) {
            (_, StateShape::Leaf) => Ok(vec![self.materialize(p, "state")?]),
            (Place::Tuple(items), StateShape::Node(children)) => {
                if items.len() != children.len() {
                    return Err(format!(
                        "successor state arity {} vs shape {}",
                        items.len(),
                        children.len()
                    ));
                }
                let mut out = Vec::new();
                for (i, (item, ch)) in items.iter().zip(children).enumerate() {
                    path.push(i as u32);
                    let sub = pat_children.and_then(|ps| ps.get(i));
                    out.extend(self.bind_state_out(item, ch, sub, path)?);
                    path.pop();
                }
                Ok(out)
            }
            (Place::Reg(src), StateShape::Node(children)) => {
                if pat_children.is_none() {
                    self.demote.push(path.clone());
                }
                let arity = children.len() as u32;
                let mut out = Vec::new();
                for (i, ch) in children.iter().enumerate() {
                    let dst = self.fresh("state");
                    self.emit(Op::Proj {
                        dst,
                        src: *src,
                        idx: i as u32,
                        arity,
                    });
                    path.push(i as u32);
                    let sub = pat_children.and_then(|ps| ps.get(i));
                    out.extend(self.bind_state_out(&Place::Reg(dst), ch, sub, path)?);
                    path.pop();
                }
                Ok(out)
            }
            (Place::Global(_), StateShape::Node(_)) => {
                Err("a closure reaches a state tuple position".into())
            }
        }
    }
}

fn pat_name(p: &MufPat) -> String {
    match p {
        MufPat::Var(x) => x.clone(),
        _ => "_".into(),
    }
}

/// Refines the pattern-derived state shape with the tuple structure of
/// the initial state: every interpreter tuple becomes a node, except the
/// nodes at `opaque` paths. A node the pattern destructures must hold a
/// tuple of the same arity.
fn refine(
    pat: &StateShape,
    init: &MufValue,
    path: &mut Vec<u32>,
    opaque: &[Vec<u32>],
) -> LowerResult<StateShape> {
    match (pat, init) {
        (StateShape::Node(ps), MufValue::Tuple(xs)) if ps.len() == xs.len() => {
            refine_children(ps.iter(), xs, path, opaque)
        }
        (StateShape::Node(ps), other) => Err(format!(
            "state shape mismatch: expected a {}-tuple, found {}",
            ps.len(),
            other.kind()
        )),
        (StateShape::Leaf, MufValue::Tuple(xs)) if !opaque.contains(path) => {
            refine_children(std::iter::repeat(&StateShape::Leaf), xs, path, opaque)
        }
        (StateShape::Leaf, _) => Ok(StateShape::Leaf),
    }
}

fn refine_children<'s>(
    pats: impl Iterator<Item = &'s StateShape>,
    xs: &[MufValue],
    path: &mut Vec<u32>,
    opaque: &[Vec<u32>],
) -> LowerResult<StateShape> {
    let mut children = Vec::with_capacity(xs.len());
    for (i, (p, x)) in pats.zip(xs).enumerate() {
        path.push(i as u32);
        children.push(refine(p, x, path, opaque)?);
        path.pop();
    }
    Ok(StateShape::Node(children))
}

/// Lowers a transition closure to a [`TapeProgram`].
///
/// `takes_input` mirrors the model's flag: driver-facing transitions take
/// `(state, input)`, embedded ones take `state` alone. The state is split
/// down to the leaves of its pattern refined by the tuple structure of
/// `init_state`; a refined node whose successor turns out register-held
/// is made opaque and the closure lowered again (at most once per node).
///
/// # Errors
///
/// A human-readable reason when the closure cannot be lowered; the caller
/// is expected to fall back to the interpreter.
pub fn lower_closure(
    interp: &Rc<Interp>,
    closure: &Rc<Closure>,
    init_state: &MufValue,
    takes_input: bool,
) -> Result<TapeProgram, String> {
    let (state_pat, input_pat) = if takes_input {
        match &closure.pat {
            MufPat::Tuple(ps) if ps.len() == 2 => (Some(&ps[0]), Some(&ps[1])),
            _ => (None, None),
        }
    } else {
        (Some(&closure.pat), None)
    };
    let pat_shape = state_pat.map_or(StateShape::Leaf, StateShape::of_pat);
    let mut opaque = Vec::new();
    loop {
        let shape = refine(&pat_shape, init_state, &mut Vec::new(), &opaque)?;
        let mut lw = Lower {
            interp,
            captured: &closure.env,
            ops: Vec::new(),
            consts: Vec::new(),
            scope: Vec::new(),
            env_slots: Vec::new(),
            global_regs: Vec::new(),
            reg_names: Vec::new(),
            next_reg: 0,
            depth: 0,
            demote: Vec::new(),
        };
        let mut state_in = Vec::new();
        let state_place = lw.leaf_places(&shape, state_pat, "s", &mut state_in);
        let input = takes_input.then(|| {
            let shape = input_pat.map_or(StateShape::Leaf, StateShape::of_pat);
            let mut regs = Vec::new();
            let place = lw.leaf_places(&shape, input_pat, "input", &mut regs);
            (Unpacked { shape, regs }, place)
        });
        let arg_place = match &input {
            Some((_, p)) => Place::Tuple(vec![state_place, p.clone()]),
            None => state_place,
        };
        lw.bind_pat(&closure.pat, arg_place)?;
        let body_place = lw.lower(&closure.body)?;
        let (out, state_out) = match body_place {
            Place::Tuple(items) if items.len() == 2 => {
                let out = lw.out_spec(&items[0])?;
                let souts =
                    lw.bind_state_out(&items[1], &shape, Some(&pat_shape), &mut Vec::new())?;
                (out, souts)
            }
            Place::Reg(r) => {
                let o = lw.fresh("out");
                lw.emit(Op::Proj {
                    dst: o,
                    src: r,
                    idx: 0,
                    arity: 2,
                });
                let s = lw.fresh("state");
                lw.emit(Op::Proj {
                    dst: s,
                    src: r,
                    idx: 1,
                    arity: 2,
                });
                let souts =
                    lw.bind_state_out(&Place::Reg(s), &shape, Some(&pat_shape), &mut Vec::new())?;
                (OutSpec::Reg(o), souts)
            }
            _ => return Err("transition must return (value, state)".into()),
        };
        if !lw.demote.is_empty() {
            opaque.append(&mut lw.demote);
            continue;
        }
        lw.emit(Op::Halt);
        let init_slots = split_state(init_state, &shape, &[])?;
        let mut prog = TapeProgram {
            consts: lw.consts,
            ops: lw.ops,
            num_regs: lw.next_reg,
            input: input.map(|(u, _)| u),
            state_in,
            state_out,
            out,
            env_slots: lw.env_slots.into_iter().map(|(n, u, _)| (n, u)).collect(),
            pinned: vec![None; init_slots.len()],
            init_slots,
            shape,
            body_ptr: Rc::as_ptr(&closure.body) as usize,
            reg_names: lw.reg_names,
        };
        propagate_copies(&mut prog);
        pin_unchanged_leaves(&mut prog);
        copy_shared_outputs(&mut prog);
        fuse_dists(&mut prog);
        eliminate_dead(&mut prog);
        compact_registers(&mut prog);
        return Ok(prog);
    }
}

/// Visits every register operand of an op: `f(reg, is_def)`.
fn for_each_reg(op: &mut Op, f: &mut dyn FnMut(&mut Reg, bool)) {
    match op {
        Op::Const { dst, .. } => f(dst, true),
        Op::Move { dst, src }
        | Op::Value { dst, src }
        | Op::Freshen { dst, src }
        | Op::Proj { dst, src, .. } => {
            f(src, false);
            f(dst, true);
        }
        Op::UnOp { dst, a, .. } => {
            f(a, false);
            f(dst, true);
        }
        Op::BinOp { dst, a, b, .. } => {
            f(a, false);
            f(b, false);
            f(dst, true);
        }
        Op::TernOp { dst, a, b, c, .. } => {
            f(a, false);
            f(b, false);
            f(c, false);
            f(dst, true);
        }
        Op::MkTuple { dst, items } => {
            for r in items {
                f(r, false);
            }
            f(dst, true);
        }
        Op::Select { dst, cond, t, f: e } => {
            f(cond, false);
            f(t, false);
            f(e, false);
            f(dst, true);
        }
        Op::Sample { dst, dist } => {
            f(dist, false);
            f(dst, true);
        }
        Op::Observe { dist, obs } => {
            f(dist, false);
            f(obs, false);
        }
        Op::SampleDist { dst, args, .. } => {
            for r in args {
                f(r, false);
            }
            f(dst, true);
        }
        Op::ObserveDist { args, obs, .. } => {
            for r in args {
                f(r, false);
            }
            f(obs, false);
        }
        Op::Factor { w } => f(w, false),
        Op::JmpIfNot { cond, .. } => f(cond, false),
        Op::CallSummary { dst, arg, .. } => {
            f(arg, false);
            f(dst, true);
        }
        Op::Eval { dst, f: g, arg } => {
            f(g, false);
            f(arg, false);
            f(dst, true);
        }
        Op::Jmp { .. } | Op::Halt => {}
    }
}

fn for_each_out_reg(spec: &mut OutSpec, f: &mut dyn FnMut(&mut Reg)) {
    match spec {
        OutSpec::Reg(r) => f(r),
        OutSpec::Tuple(items) => {
            for i in items {
                for_each_out_reg(i, f);
            }
        }
    }
}

/// Per register: how many ops define it.
fn def_counts(prog: &mut TapeProgram) -> Vec<u32> {
    let mut defs = vec![0u32; prog.num_regs as usize];
    for op in prog.consts.iter_mut().chain(prog.ops.iter_mut()) {
        for_each_reg(op, &mut |r, def| {
            if def {
                defs[*r as usize] += 1;
            }
        });
    }
    defs
}

/// Copy propagation: a `Move` that is its destination's only definition
/// makes the destination an alias of the source. Lowering defines each
/// register at most once on any path (join registers once per branch),
/// so the source still holds the same value wherever the alias is read.
fn propagate_copies(prog: &mut TapeProgram) {
    let defs = def_counts(prog);
    let mut alias: Vec<Reg> = (0..prog.num_regs).collect();
    for op in &prog.ops {
        if let Op::Move { dst, src } = op {
            if defs[*dst as usize] == 1 {
                alias[*dst as usize] = *src;
            }
        }
    }
    let resolve = |mut r: Reg| {
        while alias[r as usize] != r {
            r = alias[r as usize];
        }
        r
    };
    for op in &mut prog.ops {
        for_each_reg(op, &mut |r, def| {
            if !def {
                *r = resolve(*r);
            }
        });
    }
    for_each_out_reg(&mut prog.out, &mut |r| *r = resolve(*r));
    for r in &mut prog.state_out {
        *r = resolve(*r);
    }
}

/// Pins every live leaf the tape writes back unchanged whose initial
/// value is scalar data: its register becomes a constant loaded once,
/// and the leaf stops being a slot.
fn pin_unchanged_leaves(prog: &mut TapeProgram) {
    let mut live = 0;
    for leaf in 0..prog.pinned.len() {
        let (r_in, r_out) = (prog.state_in[live], prog.state_out[live]);
        if r_in == r_out && is_scalar(&prog.init_slots[live]) {
            let v = prog.init_slots.remove(live);
            prog.state_in.remove(live);
            prog.state_out.remove(live);
            prog.consts.push(Op::Const {
                dst: r_in,
                v: v.clone(),
            });
            prog.pinned[leaf] = Some(v);
        } else {
            live += 1;
        }
    }
}

/// Live slots are moved out of the register file after each step. A
/// successor leaf that sits in a register shared by every particle (a
/// constant or a captured-environment register), or that fills two
/// slots, is copied into a fresh register first — moving it would leave
/// `nil` behind for the next particle.
fn copy_shared_outputs(prog: &mut TapeProgram) {
    let mut shared: HashSet<Reg> = prog
        .consts
        .iter()
        .filter_map(|op| match op {
            Op::Const { dst, .. } => Some(*dst),
            _ => None,
        })
        .collect();
    shared.extend(
        prog.env_slots
            .iter()
            .flat_map(|(_, u)| u.regs.iter().copied()),
    );
    let mut copies = Vec::new();
    for k in 0..prog.state_out.len() {
        let src = prog.state_out[k];
        if !shared.insert(src) {
            let dst = prog.num_regs;
            prog.num_regs += 1;
            prog.reg_names.push("state".into());
            copies.push(Op::Move { dst, src });
            prog.state_out[k] = dst;
        }
    }
    let halt = prog.ops.len() - 1;
    prog.ops.splice(halt..halt, copies);
}

/// Fuses each distribution constructor into the `sample` or `observe`
/// that consumes it ([`Op::SampleDist`], [`Op::ObserveDist`]), so the
/// distribution is built on the stack instead of boxed into a register.
///
/// A constructor is fused when its register is defined once, read exactly
/// once — by a `sample` or `observe` in the same basic block — and is not
/// an output, successor-state or environment register. The fused op
/// builds the distribution where the consumer stands, so every op in
/// between must be unable to fail (`Move`, `MkTuple`, `Freshen`) and must
/// not redefine a constructor argument: errors then come in the same
/// order, and the arguments hold the same values.
fn fuse_dists(prog: &mut TapeProgram) {
    let n = prog.num_regs as usize;
    let defs = def_counts(prog);
    let mut reads = vec![0u32; n];
    for op in &mut prog.ops {
        for_each_reg(op, &mut |r, def| {
            if !def {
                reads[*r as usize] += 1;
            }
        });
    }
    let mut escapes = vec![false; n];
    for_each_out_reg(&mut prog.out, &mut |r| escapes[*r as usize] = true);
    for r in prog
        .state_out
        .iter()
        .chain(prog.env_slots.iter().flat_map(|(_, u)| &u.regs))
    {
        escapes[*r as usize] = true;
    }
    let mut block_start = vec![false; prog.ops.len()];
    for op in &prog.ops {
        if let Op::Jmp { target } | Op::JmpIfNot { target, .. } = op {
            if let Some(b) = block_start.get_mut(*target as usize) {
                *b = true;
            }
        }
    }
    let mut fusions = Vec::new();
    for (i, op) in prog.ops.iter().enumerate() {
        let (family, ctor, args) = match op {
            Op::UnOp { op, dst, a } if op.is_distribution() && op.arity() == 1 => {
                (*op, *dst, vec![*a])
            }
            Op::BinOp { op, dst, a, b } if op.is_distribution() && op.arity() == 2 => {
                (*op, *dst, vec![*a, *b])
            }
            _ => continue,
        };
        let d = ctor as usize;
        if defs[d] != 1 || reads[d] != 1 || escapes[d] {
            continue;
        }
        for (j, next) in prog.ops.iter().enumerate().skip(i + 1) {
            if block_start[j] {
                break;
            }
            let fused = match next {
                Op::Sample { dst, dist } if *dist == ctor => Op::SampleDist {
                    dst: *dst,
                    family,
                    args,
                },
                Op::Observe { dist, obs } if *dist == ctor => Op::ObserveDist {
                    family,
                    args,
                    obs: *obs,
                },
                Op::Move { dst, .. } | Op::MkTuple { dst, .. } | Op::Freshen { dst, .. }
                    if !args.contains(dst) =>
                {
                    continue;
                }
                _ => break,
            };
            fusions.push((i, j, fused));
            break;
        }
    }
    let mut keep = vec![true; prog.ops.len()];
    for (i, j, fused) in fusions {
        prog.ops[j] = fused;
        keep[i] = false;
    }
    retain_ops(prog, &keep);
}

/// Drops the ops whose `keep` flag is false and retargets the jumps: a
/// jump to a dropped op lands on the first kept op after it.
fn retain_ops(prog: &mut TapeProgram, keep: &[bool]) {
    if keep.iter().all(|k| *k) {
        return;
    }
    // New index of each old op index: the first kept op at or after it.
    let mut remap = vec![0u32; keep.len() + 1];
    let mut next = keep.iter().filter(|k| **k).count() as u32;
    remap[keep.len()] = next;
    for i in (0..keep.len()).rev() {
        if keep[i] {
            next -= 1;
        }
        remap[i] = next;
    }
    let mut i = 0;
    prog.ops.retain(|_| {
        i += 1;
        keep[i - 1]
    });
    for op in &mut prog.ops {
        if let Op::Jmp { target } | Op::JmpIfNot { target, .. } = op {
            *target = remap[*target as usize];
        }
    }
}

/// Dead-register elimination: drops side-effect-free ops (`Move`,
/// `MkTuple`, `Freshen`) whose result nothing reads, jumps to the next
/// op, and constants nothing reads. Ops that can fail, force a value or
/// touch the engine stay even when their result is unused (a fused
/// `sample` included), so errors and RNG consumption are unchanged.
fn eliminate_dead(prog: &mut TapeProgram) {
    loop {
        let mut read = vec![false; prog.num_regs as usize];
        for op in &mut prog.ops {
            for_each_reg(op, &mut |r, def| {
                if !def {
                    read[*r as usize] = true;
                }
            });
        }
        for_each_out_reg(&mut prog.out, &mut |r| read[*r as usize] = true);
        for &r in &prog.state_out {
            read[r as usize] = true;
        }
        let keep: Vec<bool> = prog
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| match op {
                Op::Move { dst, .. } | Op::MkTuple { dst, .. } | Op::Freshen { dst, .. } => {
                    read[*dst as usize]
                }
                Op::Jmp { target } => *target as usize != i + 1,
                _ => true,
            })
            .collect();
        prog.consts.retain(|op| match op {
            Op::Const { dst, .. } => read[*dst as usize],
            _ => true,
        });
        if keep.iter().all(|k| *k) {
            return;
        }
        retain_ops(prog, &keep);
    }
}

/// Visits every register the program names: ops, constants, the output
/// and the input, environment and state conventions.
fn for_each_prog_reg(prog: &mut TapeProgram, f: &mut dyn FnMut(&mut Reg)) {
    for op in prog.consts.iter_mut().chain(prog.ops.iter_mut()) {
        for_each_reg(op, &mut |r, _| f(r));
    }
    for_each_out_reg(&mut prog.out, f);
    let conventions = prog
        .input
        .iter_mut()
        .flat_map(|u| u.regs.iter_mut())
        .chain(
            prog.env_slots
                .iter_mut()
                .flat_map(|(_, u)| u.regs.iter_mut()),
        )
        .chain(prog.state_in.iter_mut())
        .chain(prog.state_out.iter_mut());
    for r in conventions {
        f(r);
    }
}

/// Renumbers the registers still in use densely, in their original order.
fn compact_registers(prog: &mut TapeProgram) {
    let mut used = vec![false; prog.num_regs as usize];
    for_each_prog_reg(prog, &mut |r| used[*r as usize] = true);
    let mut new_of = vec![0 as Reg; used.len()];
    let mut names = Vec::new();
    for (old, _) in used.iter().enumerate().filter(|(_, u)| **u) {
        new_of[old] = names.len() as Reg;
        names.push(std::mem::take(&mut prog.reg_names[old]));
    }
    for_each_prog_reg(prog, &mut |r| *r = new_of[*r as usize]);
    prog.num_regs = names.len() as u32;
    prog.reg_names = names;
}
