//! Symbolic affine expressions over random variables.
//!
//! Delayed sampling (§5.2 of the paper) manipulates *symbolic terms* in
//! which random variables are references into the delayed-sampling graph.
//! For the conjugacy relations this implementation supports, the useful
//! closed class of float-valued symbolic terms is **affine expressions**
//! `b + Σ aᵢ·Xᵢ`: affine images of Gaussians stay Gaussian, which is what
//! lets the robot tracker of Fig. 5 integrate a random acceleration twice
//! and still condition exactly on GPS fixes.
//!
//! # Representation
//!
//! Affine expressions sit on the per-particle hot path: every model step
//! clones, substitutes, and rebuilds them several times per particle, and
//! every resampled particle clones its state. The terms are one list,
//! sorted ascending by variable id, kept **inline** while it holds at most
//! three terms whose ids all fit in a `u16`, and **spilled** to a sorted
//! heap `Vec` otherwise (a fourth term, or an id above `u16::MAX`). Three
//! covers the paper's models: the Fig. 5 robot's velocity and position
//! are affine over the two acceleration variables still pending, plus the
//! fresh one within a tick. Pointer-minimal graphs reuse slab slots, so
//! their ids stay small; only a graph that never frees (retain-all) grows
//! ids past the inline range.
//!
//! The inline form is 32 bytes — tag, length, three `u16` ids, three
//! `f64` coefficients — so an [`AffExpr`] is 40 bytes and so is the
//! runtime `Value` that embeds it. Inlining full `(RvId, f64)` pairs
//! instead made `Value` 64 bytes, which cost more in copying and memory
//! than the B-tree allocations it saved.
//!
//! The representation is canonical: no stored coefficient is `0.0`, and
//! the form (inline or spilled) is a function of the term list alone, so
//! equal expressions compare equal and every transition round-trips.
//! Arithmetic runs the same floating-point operations in the same
//! ascending-id order as a map keyed by id: `add` is a sorted merge,
//! `scale` multiplies coefficients in place, and `substitute` folds
//! resolved terms into the constant in ascending id order.

/// Identifier of a random variable in a per-particle delayed-sampling
/// graph. Indices are slab slots; they are only meaningful together with
/// the graph that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RvId(pub(crate) usize);

impl RvId {
    /// The raw slab index (for diagnostics and tests).
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for RvId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// Most terms an expression keeps inline.
const INLINE: usize = 3;

/// The variable terms of an affine expression, ascending by id.
///
/// Invariant (canonicality): no stored coefficient is `0.0`, and `Spill`
/// is used exactly when the terms do not fit `Inline` — more than
/// [`INLINE`] of them, or an id above `u16::MAX`.
#[derive(Clone)]
enum Terms {
    /// `ids[..len]` with `coeffs[..len]`; the slots past `len` are unused.
    Inline {
        len: u8,
        ids: [u16; INLINE],
        coeffs: [f64; INLINE],
    },
    /// The terms that do not fit inline.
    Spill(Vec<(RvId, f64)>),
}

impl Terms {
    const EMPTY: Terms = Terms::Inline {
        len: 0,
        ids: [0; INLINE],
        coeffs: [0.0; INLINE],
    };

    fn len(&self) -> usize {
        match self {
            Terms::Inline { len, .. } => *len as usize,
            Terms::Spill(v) => v.len(),
        }
    }

    /// The `i`-th term (`i < len`).
    fn get(&self, i: usize) -> (RvId, f64) {
        match self {
            Terms::Inline { ids, coeffs, .. } => (RvId(ids[i] as usize), coeffs[i]),
            Terms::Spill(v) => v[i],
        }
    }

    /// Appends a term whose id exceeds every id present, dropping a zero
    /// coefficient. `cap` bounds the final length and sizes a spill, so a
    /// spilled list allocates once.
    fn push(&mut self, x: RvId, a: f64, cap: usize) {
        if a == 0.0 {
            return;
        }
        match self {
            Terms::Inline { len, ids, coeffs } => {
                let n = *len as usize;
                match u16::try_from(x.0) {
                    Ok(id) if n < INLINE => {
                        ids[n] = id;
                        coeffs[n] = a;
                        *len += 1;
                    }
                    _ => {
                        let mut v = Vec::with_capacity(cap.max(n + 1));
                        v.extend((0..n).map(|i| (RvId(ids[i] as usize), coeffs[i])));
                        v.push((x, a));
                        *self = Terms::Spill(v);
                    }
                }
            }
            Terms::Spill(v) => v.push((x, a)),
        }
    }

    /// Multiplies every coefficient by `k` in place; reports whether a
    /// product is zero (an underflow), which breaks canonicality.
    fn scale_in_place(&mut self, k: f64) -> bool {
        let mut zero = false;
        let mut mul = |a: &mut f64| {
            *a *= k;
            zero |= *a == 0.0;
        };
        match self {
            Terms::Inline { len, coeffs, .. } => {
                coeffs[..*len as usize].iter_mut().for_each(&mut mul)
            }
            Terms::Spill(v) => v.iter_mut().for_each(|(_, a)| mul(a)),
        }
        zero
    }

    /// The canonical form of these terms: zero coefficients dropped, and
    /// back inline if what is left fits.
    fn canonical(&self) -> Terms {
        let n = self.len();
        let mut out = Terms::EMPTY;
        for i in 0..n {
            let (x, a) = self.get(i);
            out.push(x, a, n);
        }
        out
    }
}

impl std::fmt::Debug for Terms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries((0..self.len()).map(|i| self.get(i)))
            .finish()
    }
}

/// A float-valued affine expression `konst + Σ coeff·rv` over graph random
/// variables.
///
/// The representation is canonical: terms are ordered by variable, zero
/// coefficients are dropped. Two equal expressions therefore compare equal
/// with `==`.
#[derive(Debug, Clone)]
pub struct AffExpr {
    terms: Terms,
    konst: f64,
}

impl Default for AffExpr {
    fn default() -> Self {
        AffExpr::constant(0.0)
    }
}

impl PartialEq for AffExpr {
    fn eq(&self, other: &AffExpr) -> bool {
        self.konst == other.konst && self.terms().eq(other.terms())
    }
}

impl AffExpr {
    /// The constant expression `c`.
    pub fn constant(c: f64) -> Self {
        AffExpr {
            terms: Terms::EMPTY,
            konst: c,
        }
    }

    /// The bare variable `x`.
    pub fn var(x: RvId) -> Self {
        let mut terms = Terms::EMPTY;
        terms.push(x, 1.0, 1);
        AffExpr { terms, konst: 0.0 }
    }

    /// The constant offset.
    pub fn konst(&self) -> f64 {
        self.konst
    }

    /// Iterates over `(variable, coefficient)` pairs (coefficients are
    /// nonzero), ascending by variable id.
    pub fn terms(&self) -> impl Iterator<Item = (RvId, f64)> + '_ {
        (0..self.terms.len()).map(|i| self.terms.get(i))
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression mentions no random variable.
    pub fn is_constant(&self) -> bool {
        self.terms.len() == 0
    }

    /// If the expression is a constant, its value.
    pub fn as_constant(&self) -> Option<f64> {
        self.is_constant().then_some(self.konst)
    }

    /// If the expression has the form `a·x + b` with exactly one variable,
    /// returns `(x, a, b)`.
    pub fn as_single(&self) -> Option<(RvId, f64, f64)> {
        (self.terms.len() == 1).then(|| {
            let (x, a) = self.terms.get(0);
            (x, a, self.konst)
        })
    }

    /// If the expression is exactly one variable (`1·x + 0`), returns it.
    pub fn as_var(&self) -> Option<RvId> {
        match self.as_single() {
            Some((x, a, b)) if a == 1.0 && b == 0.0 => Some(x),
            _ => None,
        }
    }

    /// Adds two affine expressions: a sorted merge of the term lists, in
    /// which a shared variable gets `a + b` and is dropped if that cancels.
    pub fn add(&self, other: &AffExpr) -> AffExpr {
        let (n, m) = (self.terms.len(), other.terms.len());
        let mut terms = Terms::EMPTY;
        let (mut i, mut j) = (0, 0);
        loop {
            let l = (i < n).then(|| self.terms.get(i));
            let r = (j < m).then(|| other.terms.get(j));
            let (x, a) = match (l, r) {
                (Some((x, a)), Some((y, b))) if x == y => {
                    i += 1;
                    j += 1;
                    (x, a + b)
                }
                (Some((x, a)), Some((y, _))) if x < y => {
                    i += 1;
                    (x, a)
                }
                (Some(t), None) => {
                    i += 1;
                    t
                }
                (_, Some(t)) => {
                    j += 1;
                    t
                }
                (None, None) => break,
            };
            terms.push(x, a, n + m);
        }
        AffExpr {
            terms,
            konst: self.konst + other.konst,
        }
    }

    /// Subtracts `other` from `self`.
    pub fn sub(&self, other: &AffExpr) -> AffExpr {
        self.add(&other.scale(-1.0))
    }

    /// Multiplies by a scalar. A coefficient whose product underflows to
    /// zero is dropped, like a cancelled one.
    pub fn scale(&self, k: f64) -> AffExpr {
        if k == 0.0 {
            return AffExpr::constant(0.0);
        }
        let mut out = self.clone();
        out.konst *= k;
        if out.terms.scale_in_place(k) {
            out.terms = out.terms.canonical();
        }
        out
    }

    /// Adds a scalar offset.
    pub fn offset(&self, c: f64) -> AffExpr {
        let mut out = self.clone();
        out.konst += c;
        out
    }

    /// Substitutes concrete values for variables, using `lookup` to resolve
    /// a variable to a value when available. Variables that `lookup` does
    /// not resolve remain symbolic.
    ///
    /// Terms are visited ascending by variable id and resolved values are
    /// folded into the constant in that order.
    pub fn substitute(&self, mut lookup: impl FnMut(RvId) -> Option<f64>) -> AffExpr {
        let n = self.terms.len();
        let mut konst = self.konst;
        let mut terms = Terms::EMPTY;
        for (x, a) in self.terms() {
            match lookup(x) {
                Some(v) => konst += a * v,
                None => terms.push(x, a, n),
            }
        }
        AffExpr { terms, konst }
    }

    /// All variables mentioned, in ascending id order.
    pub fn vars(&self) -> Vec<RvId> {
        self.terms().map(|(x, _)| x).collect()
    }
}

impl std::fmt::Display for AffExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (x, a) in self.terms() {
            if first {
                if a == 1.0 {
                    write!(f, "{x}")?;
                } else {
                    write!(f, "{a}·{x}")?;
                }
                first = false;
            } else if a == 1.0 {
                write!(f, " + {x}")?;
            } else {
                write!(f, " + {a}·{x}")?;
            }
        }
        if first {
            write!(f, "{}", self.konst)
        } else if self.konst != 0.0 {
            write!(f, " + {}", self.konst)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> RvId {
        RvId(0)
    }
    fn is_inline(e: &AffExpr) -> bool {
        matches!(e.terms, Terms::Inline { .. })
    }
    fn y() -> RvId {
        RvId(1)
    }

    #[test]
    fn constants_and_vars() {
        assert_eq!(AffExpr::constant(3.0).as_constant(), Some(3.0));
        assert_eq!(AffExpr::var(x()).as_var(), Some(x()));
        assert!(AffExpr::var(x()).as_constant().is_none());
    }

    #[test]
    fn add_merges_terms() {
        let e = AffExpr::var(x()).add(&AffExpr::var(x())).offset(1.0);
        assert_eq!(e.as_single(), Some((x(), 2.0, 1.0)));
    }

    #[test]
    fn cancellation_drops_terms() {
        let e = AffExpr::var(x()).sub(&AffExpr::var(x()));
        assert!(e.is_constant());
        assert_eq!(e.as_constant(), Some(0.0));
    }

    #[test]
    fn scale_by_zero_is_constant_zero() {
        let e = AffExpr::var(x()).offset(5.0).scale(0.0);
        assert_eq!(e.as_constant(), Some(0.0));
    }

    #[test]
    fn two_variable_expression_is_not_single() {
        let e = AffExpr::var(x()).add(&AffExpr::var(y()));
        assert!(e.as_single().is_none());
        assert_eq!(e.num_vars(), 2);
        assert_eq!(e.vars(), vec![x(), y()]);
    }

    #[test]
    fn substitute_resolves_and_keeps() {
        let e = AffExpr::var(x())
            .scale(2.0)
            .add(&AffExpr::var(y()))
            .offset(1.0);
        let s = e.substitute(|v| (v == x()).then_some(3.0));
        assert_eq!(s.as_single(), Some((y(), 1.0, 7.0)));
        let s2 = s.substitute(|v| (v == y()).then_some(-7.0));
        assert_eq!(s2.as_constant(), Some(0.0));
    }

    #[test]
    fn display_is_readable() {
        let e = AffExpr::var(x()).scale(2.0).offset(1.0);
        assert_eq!(e.to_string(), "2·X0 + 1");
        assert_eq!(AffExpr::constant(4.0).to_string(), "4");
        assert_eq!(AffExpr::var(y()).to_string(), "X1");
    }

    #[test]
    fn canonical_equality() {
        let a = AffExpr::var(x()).add(&AffExpr::var(y()));
        let b = AffExpr::var(y()).add(&AffExpr::var(x()));
        assert_eq!(a, b);
    }

    #[test]
    fn many_demotes_to_inline_on_cancellation() {
        // x + y − y must come back to the inline single-term form so the
        // canonical-equality contract survives the representation change.
        let e = AffExpr::var(x())
            .add(&AffExpr::var(y()))
            .sub(&AffExpr::var(y()));
        assert_eq!(e.as_single(), Some((x(), 1.0, 0.0)));
        assert_eq!(e, AffExpr::var(x()));
        // And substituting all but one variable of a Many demotes too.
        let m = AffExpr::var(x()).add(&AffExpr::var(y()));
        let s = m.substitute(|v| (v == x()).then_some(2.0));
        assert_eq!(s.as_single(), Some((y(), 1.0, 2.0)));
        assert_eq!(s, AffExpr::var(y()).offset(2.0));
    }

    #[test]
    fn underflowed_coefficients_are_dropped() {
        // 1e-200 · 1e-200 underflows to exactly 0: the term must go, or the
        // expression would claim a variable it no longer depends on (and a
        // `gaussian` with this mean would take the conjugate path).
        let e = AffExpr::var(x()).scale(1e-200).scale(1e-200);
        assert_eq!(e.num_vars(), 0);
        assert_eq!(e.as_constant(), Some(0.0));
        assert_eq!(e, AffExpr::constant(0.0));
        // Only the underflowing term goes, and a spilled list that shrinks
        // to three terms comes back inline.
        let big = (0..4).fold(AffExpr::var(x()).scale(1e-200), |acc, i| {
            acc.add(&AffExpr::var(RvId(i + 1)))
        });
        assert!(!is_inline(&big));
        let s = big.scale(1e-200);
        assert_eq!(
            s.terms().collect::<Vec<_>>(),
            (1..5).map(|i| (RvId(i), 1e-200)).collect::<Vec<_>>()
        );
        let s = big.sub(&AffExpr::var(RvId(4))).scale(1e-200);
        assert!(is_inline(&s));
        assert_eq!(s.num_vars(), 3);
    }

    #[test]
    fn inline_and_spilled_forms_round_trip() {
        let z = RvId(2);
        let xyz = AffExpr::var(x())
            .add(&AffExpr::var(y()).scale(2.0))
            .add(&AffExpr::var(z))
            .offset(1.0);
        assert!(is_inline(&xyz));
        // A fourth term spills; removing it comes back inline and equal.
        let w = AffExpr::var(RvId(3));
        let four = xyz.add(&w);
        assert!(!is_inline(&four));
        assert_eq!(four.num_vars(), 4);
        let back = four.sub(&w);
        assert!(is_inline(&back));
        assert_eq!(back, xyz);
        // An id above u16::MAX spills even alone.
        let far = AffExpr::var(RvId(usize::from(u16::MAX) + 1));
        assert!(!is_inline(&far));
        assert!(is_inline(&AffExpr::var(RvId(usize::from(u16::MAX)))));
        let with_far = xyz.add(&far);
        assert!(!is_inline(&with_far));
        assert_eq!(with_far.sub(&far), xyz);
        // Substituting away a spilled term demotes too.
        let s = four.substitute(|v| (v == RvId(3)).then_some(0.5));
        assert!(is_inline(&s));
        assert_eq!(s, xyz.offset(0.5));
    }

    #[test]
    fn three_term_spill_roundtrip() {
        let z = RvId(2);
        let e = AffExpr::var(x())
            .add(&AffExpr::var(y()))
            .add(&AffExpr::var(z).scale(3.0))
            .offset(-1.0);
        assert_eq!(e.num_vars(), 3);
        assert_eq!(e.vars(), vec![x(), y(), z]);
        let s = e.substitute(|v| (v == y()).then_some(0.5));
        assert_eq!(s.num_vars(), 2);
        assert_eq!(s.konst(), -0.5);
    }

    /// The map-keyed representation the inline term list replaced, kept
    /// only as an oracle: terms in a `BTreeMap`, updated entry by entry.
    mod reference {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        #[derive(Debug, Clone, PartialEq)]
        struct MapAff {
            terms: BTreeMap<usize, f64>,
            konst: f64,
        }

        impl MapAff {
            fn var(x: usize) -> Self {
                MapAff {
                    terms: BTreeMap::from([(x, 1.0)]),
                    konst: 0.0,
                }
            }

            fn add(&self, other: &MapAff) -> MapAff {
                let mut terms = self.terms.clone();
                for (&x, &a) in &other.terms {
                    let entry = terms.entry(x).or_insert(0.0);
                    *entry += a;
                    if *entry == 0.0 {
                        terms.remove(&x);
                    }
                }
                MapAff {
                    terms,
                    konst: self.konst + other.konst,
                }
            }

            fn scale(&self, k: f64) -> MapAff {
                if k == 0.0 {
                    return MapAff {
                        terms: BTreeMap::new(),
                        konst: 0.0,
                    };
                }
                MapAff {
                    terms: self
                        .terms
                        .iter()
                        .map(|(&x, &a)| (x, a * k))
                        .filter(|&(_, a)| a != 0.0)
                        .collect(),
                    konst: self.konst * k,
                }
            }

            fn sub(&self, other: &MapAff) -> MapAff {
                self.add(&other.scale(-1.0))
            }

            fn offset(&self, c: f64) -> MapAff {
                MapAff {
                    terms: self.terms.clone(),
                    konst: self.konst + c,
                }
            }

            fn substitute(&self, lookup: impl Fn(usize) -> Option<f64>) -> MapAff {
                let mut konst = self.konst;
                let mut terms = BTreeMap::new();
                for (&x, &a) in &self.terms {
                    match lookup(x) {
                        Some(v) => konst += a * v,
                        None => {
                            terms.insert(x, a);
                        }
                    }
                }
                MapAff { terms, konst }
            }
        }

        /// Constant and terms, bit for bit.
        fn bits(e: &AffExpr) -> (u64, Vec<(usize, u64)>) {
            let terms = e.terms().map(|(x, a)| (x.0, a.to_bits())).collect();
            (e.konst.to_bits(), terms)
        }

        fn ref_bits(e: &MapAff) -> (u64, Vec<(usize, u64)>) {
            let terms = e.terms.iter().map(|(&x, a)| (x, a.to_bits())).collect();
            (e.konst.to_bits(), terms)
        }

        fn id() -> impl Strategy<Value = usize> {
            let max = usize::from(u16::MAX);
            prop_oneof![
                0usize..8,
                max - 3..=max,
                max + 1..max + 5,
                100_000usize..1_000_000,
            ]
        }

        fn factor() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(-1.0),
                Just(2.0),
                Just(0.5),
                Just(0.0),
                Just(1e-200),
                -3.0f64..3.0,
            ]
        }

        /// One operation on the pool: `(kind, lhs, rhs, scalar, mask)`,
        /// operand indices taken modulo the pool size.
        type Op = (u8, usize, usize, f64, u8);

        fn op() -> impl Strategy<Value = Op> {
            (0u8..5, 0usize..64, 0usize..64, factor(), any::<u8>())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn inline_terms_match_the_map_oracle(
                ids in prop_collection::vec(id(), 1..=6),
                ops in prop_collection::vec(op(), 1..40),
            ) {
                let mut pool: Vec<(AffExpr, MapAff)> = ids
                    .iter()
                    .map(|&x| (AffExpr::var(RvId(x)), MapAff::var(x)))
                    .collect();
                for (kind, i, j, k, mask) in ops {
                    let (a, ra) = pool[i % pool.len()].clone();
                    let (b, rb) = pool[j % pool.len()].clone();
                    // Inexact values, so that folding them into the
                    // constant in another order would change its bits.
                    let resolve = |x: usize| {
                        ((mask >> (x % 8)) & 1 == 1).then(|| (x as f64 + 1.5).ln() * k + 0.1)
                    };
                    let next = match kind {
                        0 => (a.add(&b), ra.add(&rb)),
                        1 => (a.sub(&b), ra.sub(&rb)),
                        2 => (a.scale(k), ra.scale(k)),
                        3 => (a.offset(k), ra.offset(k)),
                        _ => (a.substitute(|x| resolve(x.0)), ra.substitute(resolve)),
                    };
                    prop_assert_eq!(bits(&next.0), ref_bits(&next.1));
                    let fits = next.1.terms.len() <= INLINE
                        && next.1.terms.keys().all(|&x| x <= usize::from(u16::MAX));
                    prop_assert_eq!(is_inline(&next.0), fits, "{:?}", next.0);
                    pool.push(next);
                }
                // `==` agrees with the oracle across inline and spilled forms.
                for (a, ra) in &pool {
                    for (b, rb) in &pool {
                        prop_assert_eq!(a == b, ra == rb, "{:?} vs {:?}", a, b);
                    }
                }
            }
        }
    }
}
