//! Abstract syntax of the ProbZelus kernel language (Fig. 6), plus the
//! derived operators the paper desugars into the kernel (`->`, `pre`,
//! `fby`): those are removed by [`crate::transform`] before kind checking,
//! scheduling, and compilation.
//!
//! Source spans are carried by the transparent [`Expr::At`] wrapper, which
//! the parser inserts around the expressions diagnostics most often point
//! at (effectful operators, node applications, and equation right-hand
//! sides). Every pass either threads the position into its errors or
//! passes straight through it; [`Expr::peel`] and [`Expr::strip_spans`]
//! recover the span-free structure.

use crate::error::Pos;

/// Literal constants.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// `()`.
    Unit,
    /// Booleans.
    Bool(bool),
    /// Integer literals.
    Int(i64),
    /// Float literals.
    Float(f64),
    /// The undefined value used internally to initialize the state of a
    /// desugared `pre`: reading it is an initialization error that the
    /// initialization analysis rules out for accepted programs.
    Nil,
}

impl std::fmt::Display for Const {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Const::Unit => write!(f, "()"),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Int(n) => write!(f, "{n}"),
            Const::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Const::Nil => write!(f, "nil"),
        }
    }
}

/// Built-in external operators (`op(e)` of the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpName {
    /// Addition (`+`, `+.`).
    Add,
    /// Subtraction (`-`, `-.`).
    Sub,
    /// Multiplication (`*`, `*.`).
    Mul,
    /// Division (`/`, `/.`).
    Div,
    /// Arithmetic negation.
    Neg,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `=` (structural).
    Eq,
    /// `<>`.
    Ne,
    /// `&&` (strict).
    And,
    /// `||` (strict).
    Or,
    /// `not`.
    Not,
    /// First projection.
    Fst,
    /// Second projection.
    Snd,
    /// `exp`.
    Exp,
    /// Natural logarithm.
    Log,
    /// `sqrt`.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Binary minimum.
    Min,
    /// Binary maximum.
    Max,
    /// Integer to float conversion.
    FloatOfInt,
    /// Posterior mean (`mean_float(d)` on an inferred distribution).
    MeanFloat,
    /// Posterior variance.
    VarianceFloat,
    /// Posterior interval probability `prob(d, lo, hi)` — the paper's
    /// `probability(p_dist, target, eps)` is `prob(d, target - eps,
    /// target + eps)`.
    Prob,
    /// Draw one sample from an inferred posterior (driver-level).
    DrawDist,
    /// Gaussian distribution constructor (mean, variance).
    Gaussian,
    /// Beta distribution constructor.
    Beta,
    /// Bernoulli distribution constructor.
    Bernoulli,
    /// Uniform distribution constructor.
    Uniform,
    /// Gamma distribution constructor.
    Gamma,
    /// Poisson distribution constructor.
    Poisson,
    /// Exponential distribution constructor.
    Exponential,
    /// Binomial distribution constructor.
    Binomial,
    /// Dirac distribution constructor.
    Dirac,
}

impl OpName {
    /// Number of arguments the operator takes.
    pub fn arity(&self) -> usize {
        use OpName::*;
        match self {
            Neg | Not | Fst | Snd | Exp | Log | Sqrt | Abs | FloatOfInt | MeanFloat
            | VarianceFloat | DrawDist | Bernoulli | Poisson | Exponential | Dirac => 1,
            Add | Sub | Mul | Div | Lt | Le | Gt | Ge | Eq | Ne | And | Or | Min | Max
            | Gaussian | Beta | Uniform | Gamma | Binomial => 2,
            Prob => 3,
        }
    }

    /// Whether the operator constructs a distribution (`gaussian`,
    /// `beta`, `bernoulli`, ...).
    pub fn is_distribution(&self) -> bool {
        use OpName::*;
        match self {
            Gaussian | Beta | Bernoulli | Uniform | Gamma | Poisson | Exponential | Binomial
            | Dirac => true,
            Neg | Not | Fst | Snd | Exp | Log | Sqrt | Abs | FloatOfInt | MeanFloat
            | VarianceFloat | DrawDist | Add | Sub | Mul | Div | Lt | Le | Gt | Ge | Eq | Ne
            | And | Or | Min | Max | Prob => false,
        }
    }

    /// The operator invocable by name in source code (e.g. `exp(x)`), if
    /// any. Returns the name it is known under.
    pub fn from_ident(name: &str) -> Option<OpName> {
        use OpName::*;
        Some(match name {
            "exp" => Exp,
            "log" => Log,
            "sqrt" => Sqrt,
            "abs" => Abs,
            "min" => Min,
            "max" => Max,
            "float_of_int" => FloatOfInt,
            "fst" => Fst,
            "snd" => Snd,
            "not" => Not,
            "mean_float" => MeanFloat,
            "variance_float" => VarianceFloat,
            "prob" => Prob,
            "draw" => DrawDist,
            "gaussian" => Gaussian,
            "beta" => Beta,
            "bernoulli" => Bernoulli,
            "uniform" => Uniform,
            "gamma" => Gamma,
            "poisson" => Poisson,
            "exponential" => Exponential,
            "binomial" => Binomial,
            "dirac" => Dirac,
            _ => return None,
        })
    }

    /// Rendering used by the pretty-printer for identifier-style operators.
    pub fn ident(&self) -> &'static str {
        use OpName::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Neg => "-",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            Eq => "=",
            Ne => "<>",
            And => "&&",
            Or => "||",
            Not => "not",
            Fst => "fst",
            Snd => "snd",
            Exp => "exp",
            Log => "log",
            Sqrt => "sqrt",
            Abs => "abs",
            Min => "min",
            Max => "max",
            FloatOfInt => "float_of_int",
            MeanFloat => "mean_float",
            VarianceFloat => "variance_float",
            Prob => "prob",
            DrawDist => "draw",
            Gaussian => "gaussian",
            Beta => "beta",
            Bernoulli => "bernoulli",
            Uniform => "uniform",
            Gamma => "gamma",
            Poisson => "poisson",
            Exponential => "exponential",
            Binomial => "binomial",
            Dirac => "dirac",
        }
    }
}

/// Expressions (Fig. 6 plus derived forms).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Constant.
    Const(Const),
    /// Variable.
    Var(String),
    /// Pair `(e1, e2)` (tuples nest to the right).
    Pair(Box<Expr>, Box<Expr>),
    /// External operator application.
    Op(OpName, Vec<Expr>),
    /// Node application `f(e)`.
    App(String, Box<Expr>),
    /// `last x`.
    Last(String),
    /// `e where rec E`.
    Where {
        /// Result expression.
        body: Box<Expr>,
        /// The mutually recursive equations.
        eqs: Vec<Eq>,
    },
    /// `present e -> e1 else e2` (lazy activation condition).
    Present {
        /// Condition.
        cond: Box<Expr>,
        /// Branch executed when the condition is true.
        then: Box<Expr>,
        /// Branch executed otherwise.
        els: Box<Expr>,
    },
    /// `reset e1 every e2`.
    Reset {
        /// Body whose state is re-initialized.
        body: Box<Expr>,
        /// Reset condition.
        every: Box<Expr>,
    },
    /// Strict conditional (an external operator per §3.1, but kept as a
    /// node in the tree because its compilation selects on a value).
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then-value (always computed).
        then: Box<Expr>,
        /// Else-value (always computed).
        els: Box<Expr>,
    },
    /// `sample(e)`.
    Sample(Box<Expr>),
    /// `observe(e1, e2)`.
    Observe(Box<Expr>, Box<Expr>),
    /// `factor(e)`.
    Factor(Box<Expr>),
    /// `value(e)`: force realization of a delayed variable (§5.3).
    ValueOp(Box<Expr>),
    /// `infer n f (e)`: run `n` particles of node `f` over the
    /// deterministic input stream `e`.
    Infer {
        /// Particle count.
        particles: usize,
        /// Probabilistic model node name.
        node: String,
        /// Deterministic input expression.
        arg: Box<Expr>,
    },
    /// Derived: `e1 -> e2` (removed by desugaring).
    Arrow(Box<Expr>, Box<Expr>),
    /// Derived: `pre e` (removed by desugaring).
    Pre(Box<Expr>),
    /// Derived: `e1 fby e2` ≡ `e1 -> pre e2` (removed by desugaring).
    Fby(Box<Expr>, Box<Expr>),
    /// Span annotation: semantically transparent, carries the source
    /// position of the wrapped expression for diagnostics.
    At(Box<Expr>, Pos),
}

impl Expr {
    /// Builds a variable expression.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Builds a pair.
    pub fn pair(a: Expr, b: Expr) -> Expr {
        Expr::Pair(Box::new(a), Box::new(b))
    }

    /// Float literal.
    pub fn float(x: f64) -> Expr {
        Expr::Const(Const::Float(x))
    }

    /// Int literal.
    pub fn int(n: i64) -> Expr {
        Expr::Const(Const::Int(n))
    }

    /// Wraps an expression with a source span.
    pub fn at(e: Expr, pos: Pos) -> Expr {
        Expr::At(Box::new(e), pos)
    }

    /// The underlying expression with any [`Expr::At`] wrappers removed
    /// (outermost only; sub-expressions keep their spans).
    pub fn peel(&self) -> &Expr {
        let mut e = self;
        while let Expr::At(inner, _) = e {
            e = inner;
        }
        e
    }

    /// The outermost span annotation, if any.
    pub fn span(&self) -> Option<Pos> {
        match self {
            Expr::At(_, p) => Some(*p),
            _ => None,
        }
    }

    /// A structurally identical copy with every [`Expr::At`] removed.
    /// Round-trip tests compare span-free trees with this.
    pub fn strip_spans(&self) -> Expr {
        fn b(e: &Expr) -> Box<Expr> {
            Box::new(e.strip_spans())
        }
        match self {
            Expr::At(inner, _) => inner.strip_spans(),
            Expr::Const(c) => Expr::Const(c.clone()),
            Expr::Var(x) => Expr::Var(x.clone()),
            Expr::Pair(a, x) => Expr::Pair(b(a), b(x)),
            Expr::Op(op, args) => Expr::Op(*op, args.iter().map(Expr::strip_spans).collect()),
            Expr::App(f, arg) => Expr::App(f.clone(), b(arg)),
            Expr::Last(x) => Expr::Last(x.clone()),
            Expr::Where { body, eqs } => Expr::Where {
                body: b(body),
                eqs: eqs.iter().map(Eq::strip_spans).collect(),
            },
            Expr::Present { cond, then, els } => Expr::Present {
                cond: b(cond),
                then: b(then),
                els: b(els),
            },
            Expr::Reset { body, every } => Expr::Reset {
                body: b(body),
                every: b(every),
            },
            Expr::If { cond, then, els } => Expr::If {
                cond: b(cond),
                then: b(then),
                els: b(els),
            },
            Expr::Sample(d) => Expr::Sample(b(d)),
            Expr::Observe(d, v) => Expr::Observe(b(d), b(v)),
            Expr::Factor(w) => Expr::Factor(b(w)),
            Expr::ValueOp(x) => Expr::ValueOp(b(x)),
            Expr::Infer {
                particles,
                node,
                arg,
            } => Expr::Infer {
                particles: *particles,
                node: node.clone(),
                arg: b(arg),
            },
            Expr::Arrow(a, x) => Expr::Arrow(b(a), b(x)),
            Expr::Pre(x) => Expr::Pre(b(x)),
            Expr::Fby(a, x) => Expr::Fby(b(a), b(x)),
        }
    }
}

/// Equations (`E` of Fig. 6, plus the derived `automaton` of §2.4, which
/// [`crate::automata`] rewrites into `present`/`reset` before the kernel
/// passes run). Parallel composition is a `Vec<Eq>`.
#[derive(Debug, Clone, PartialEq)]
pub enum Eq {
    /// `x = e`.
    Def {
        /// Defined variable.
        name: String,
        /// Defining expression.
        expr: Expr,
    },
    /// `init x = c`.
    Init {
        /// Initialized variable.
        name: String,
        /// Initial constant.
        value: Const,
    },
    /// `automaton | S1 -> do E until c then S2 | … ` — a mode automaton
    /// defining the union of the variables its states define. Transitions
    /// are weak (`until`): they take effect at the next instant, and the
    /// entered state's equations restart from their initial state.
    Automaton {
        /// The states, in declaration order (the first is initial).
        states: Vec<AutoState>,
    },
}

/// One state of a mode automaton.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoState {
    /// State name.
    pub name: String,
    /// The equations active in this state.
    pub eqs: Vec<Eq>,
    /// Weak transitions `until cond then target`, tried in order.
    pub transitions: Vec<(Expr, String)>,
}

impl Eq {
    /// A copy with every [`Expr::At`] removed from contained expressions.
    pub fn strip_spans(&self) -> Eq {
        match self {
            Eq::Def { name, expr } => Eq::Def {
                name: name.clone(),
                expr: expr.strip_spans(),
            },
            Eq::Init { name, value } => Eq::Init {
                name: name.clone(),
                value: value.clone(),
            },
            Eq::Automaton { states } => Eq::Automaton {
                states: states
                    .iter()
                    .map(|s| AutoState {
                        name: s.name.clone(),
                        eqs: s.eqs.iter().map(Eq::strip_spans).collect(),
                        transitions: s
                            .transitions
                            .iter()
                            .map(|(c, t)| (c.strip_spans(), t.clone()))
                            .collect(),
                    })
                    .collect(),
            },
        }
    }

    /// The variable this equation defines or initializes.
    ///
    /// # Panics
    ///
    /// Panics on an `automaton` equation, which defines several variables —
    /// those must be expanded by [`crate::automata`] first.
    pub fn name(&self) -> &str {
        match self {
            Eq::Def { name, .. } | Eq::Init { name, .. } => name,
            Eq::Automaton { .. } => {
                panic!("automaton equations define several variables; expand them first")
            }
        }
    }
}

/// Formal parameter patterns of node declarations.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// `x`.
    Var(String),
    /// `()`.
    Unit,
    /// `(p1, p2)` (tuples nest right).
    Pair(Box<Pattern>, Box<Pattern>),
}

impl Pattern {
    /// All variables bound by the pattern, left to right.
    pub fn vars(&self) -> Vec<&str> {
        match self {
            Pattern::Var(x) => vec![x],
            Pattern::Unit => vec![],
            Pattern::Pair(a, b) => {
                let mut v = a.vars();
                v.extend(b.vars());
                v
            }
        }
    }
}

/// A stream function declaration `let node f p = e`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDecl {
    /// Node name.
    pub name: String,
    /// Formal parameter.
    pub param: Pattern,
    /// Body.
    pub body: Expr,
}

/// A program: a sequence of node declarations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Declarations, in source order.
    pub nodes: Vec<NodeDecl>,
}

impl Program {
    /// Looks up a node by name.
    pub fn node(&self, name: &str) -> Option<&NodeDecl> {
        self.nodes.iter().find(|n| n.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_arities_match_identifier_lookup() {
        for name in [
            "exp",
            "log",
            "sqrt",
            "abs",
            "min",
            "max",
            "fst",
            "snd",
            "gaussian",
            "beta",
            "bernoulli",
            "uniform",
            "gamma",
            "poisson",
            "binomial",
            "dirac",
            "prob",
            "mean_float",
        ] {
            let op = OpName::from_ident(name).unwrap();
            assert!(op.arity() >= 1 && op.arity() <= 3);
        }
        assert!(OpName::from_ident("nonexistent").is_none());
    }

    #[test]
    fn pattern_vars_in_order() {
        let p = Pattern::Pair(
            Box::new(Pattern::Var("a".into())),
            Box::new(Pattern::Pair(
                Box::new(Pattern::Var("b".into())),
                Box::new(Pattern::Unit),
            )),
        );
        assert_eq!(p.vars(), vec!["a", "b"]);
    }

    #[test]
    fn const_display() {
        assert_eq!(Const::Float(2.0).to_string(), "2.0");
        assert_eq!(Const::Float(2.5).to_string(), "2.5");
        assert_eq!(Const::Int(3).to_string(), "3");
        assert_eq!(Const::Unit.to_string(), "()");
    }

    #[test]
    fn program_lookup() {
        let prog = Program {
            nodes: vec![NodeDecl {
                name: "f".into(),
                param: Pattern::Var("x".into()),
                body: Expr::var("x"),
            }],
        };
        assert!(prog.node("f").is_some());
        assert!(prog.node("g").is_none());
    }
}
