//! Dynamic runtime values.
//!
//! A [`Value`] is what flows on streams at run time: scalars, pairs,
//! first-class distributions ([`DistExpr`]), and — under delayed sampling —
//! *symbolic* values referencing random variables that have not been
//! sampled yet ([`Value::Aff`] for float-valued affine terms,
//! [`Value::Rv`] for boolean- or count-valued variables).

use crate::error::RuntimeError;
use crate::marginal::Marginal;
use crate::symbolic::{AffExpr, RvId};
use probzelus_distributions as dist;
use probzelus_distributions::{Matrix, Vector};

/// A dynamic runtime value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// The unit value `()`.
    #[default]
    Unit,
    /// Boolean.
    Bool(bool),
    /// Integer (used for counts and discrete observations).
    Int(i64),
    /// Floating point.
    Float(f64),
    /// Pair of values.
    Pair(Box<Value>, Box<Value>),
    /// Homogeneous array (used for driver-level collections).
    Array(Vec<Value>),
    /// A first-class distribution, possibly with symbolic parameters.
    Dist(Box<DistExpr>),
    /// A symbolic float-valued affine expression over random variables.
    Aff(AffExpr),
    /// A symbolic non-float random variable (boolean or count valued).
    Rv(RvId),
}

impl Value {
    /// Builds a pair.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Box::new(a), Box::new(b))
    }

    /// Builds a distribution value.
    pub fn dist(d: DistExpr) -> Value {
        Value::Dist(Box::new(d))
    }

    /// A short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Pair(_, _) => "pair",
            Value::Array(_) => "array",
            Value::Dist(_) => "distribution",
            Value::Aff(_) => "symbolic float",
            Value::Rv(_) => "symbolic variable",
        }
    }

    /// Extracts a concrete float.
    ///
    /// Symbolic expressions that happen to be constant are accepted.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NeedsValue`] for genuinely symbolic values;
    /// [`RuntimeError::TypeMismatch`] for non-float values.
    pub fn as_float(&self) -> Result<f64, RuntimeError> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::Aff(e) => e
                .as_constant()
                .ok_or_else(|| RuntimeError::NeedsValue(e.to_string())),
            Value::Rv(x) => Err(RuntimeError::NeedsValue(x.to_string())),
            other => Err(RuntimeError::TypeMismatch {
                expected: "float",
                got: other.kind().to_string(),
            }),
        }
    }

    /// Extracts a concrete boolean.
    ///
    /// # Errors
    ///
    /// See [`Value::as_float`].
    pub fn as_bool(&self) -> Result<bool, RuntimeError> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Rv(x) => Err(RuntimeError::NeedsValue(x.to_string())),
            other => Err(RuntimeError::TypeMismatch {
                expected: "bool",
                got: other.kind().to_string(),
            }),
        }
    }

    /// Extracts a concrete integer.
    ///
    /// # Errors
    ///
    /// See [`Value::as_float`].
    pub fn as_int(&self) -> Result<i64, RuntimeError> {
        match self {
            Value::Int(n) => Ok(*n),
            Value::Rv(x) => Err(RuntimeError::NeedsValue(x.to_string())),
            other => Err(RuntimeError::TypeMismatch {
                expected: "int",
                got: other.kind().to_string(),
            }),
        }
    }

    /// Extracts a non-negative count.
    ///
    /// # Errors
    ///
    /// See [`Value::as_float`]; also rejects negative integers.
    pub fn as_count(&self) -> Result<u64, RuntimeError> {
        let n = self.as_int()?;
        u64::try_from(n).map_err(|_| RuntimeError::TypeMismatch {
            expected: "non-negative count",
            got: n.to_string(),
        })
    }

    /// Builds an array-of-floats value from a vector.
    pub fn from_vector(v: &Vector) -> Value {
        Value::Array(v.as_slice().iter().map(|&x| Value::Float(x)).collect())
    }

    /// Extracts a concrete float vector from an array of floats.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TypeMismatch`] if the value is not an array of
    /// concrete floats; [`RuntimeError::NeedsValue`] on symbolic entries.
    pub fn as_vector(&self) -> Result<Vector, RuntimeError> {
        match self {
            Value::Array(xs) => Ok(Vector::new(
                xs.iter().map(|x| x.as_float()).collect::<Result<_, _>>()?,
            )),
            other => Err(RuntimeError::TypeMismatch {
                expected: "float array",
                got: other.kind().to_string(),
            }),
        }
    }

    /// Views as a pair.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TypeMismatch`] if the value is not a pair.
    pub fn as_pair(&self) -> Result<(&Value, &Value), RuntimeError> {
        match self {
            Value::Pair(a, b) => Ok((a, b)),
            other => Err(RuntimeError::TypeMismatch {
                expected: "pair",
                got: other.kind().to_string(),
            }),
        }
    }

    /// Views as a distribution expression.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TypeMismatch`] if the value is not a distribution.
    pub fn as_dist(&self) -> Result<&DistExpr, RuntimeError> {
        match self {
            Value::Dist(d) => Ok(d),
            other => Err(RuntimeError::TypeMismatch {
                expected: "distribution",
                got: other.kind().to_string(),
            }),
        }
    }

    /// Whether the value (recursively) references any random variable.
    pub fn is_symbolic(&self) -> bool {
        let mut found = false;
        self.for_each_rv(&mut |_| found = true);
        found
    }

    /// Calls `f` on every random-variable reference in the value,
    /// recursively (including inside distribution parameters).
    pub fn for_each_rv(&self, f: &mut dyn FnMut(RvId)) {
        match self {
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Float(_) => {}
            Value::Pair(a, b) => {
                a.for_each_rv(f);
                b.for_each_rv(f);
            }
            Value::Array(xs) => {
                for x in xs {
                    x.for_each_rv(f);
                }
            }
            Value::Dist(d) => {
                for p in d.params() {
                    p.for_each_rv(f);
                }
            }
            Value::Aff(e) => {
                for (x, _) in e.terms() {
                    f(x);
                }
            }
            Value::Rv(x) => f(*x),
        }
    }

    /// Normalizes a symbolic float: constant affine expressions collapse to
    /// plain floats, single-variable identity expressions stay symbolic.
    pub fn simplify(self) -> Value {
        match self {
            Value::Aff(e) => match e.as_constant() {
                Some(c) => Value::Float(c),
                None => Value::Aff(e),
            },
            Value::Pair(a, b) => Value::pair(a.simplify(), b.simplify()),
            other => other,
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Unit
    }
}

impl From<AffExpr> for Value {
    fn from(e: AffExpr) -> Self {
        Value::Aff(e).simplify()
    }
}

impl From<DistExpr> for Value {
    fn from(d: DistExpr) -> Self {
        Value::dist(d)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::Array(xs) => {
                write!(f, "[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::Dist(d) => write!(f, "{d}"),
            Value::Aff(e) => write!(f, "{e}"),
            Value::Rv(x) => write!(f, "{x}"),
        }
    }
}

/// A first-class distribution value whose parameters may themselves be
/// symbolic — this is what `sample` and `observe` receive.
///
/// Gaussians are parameterized by **variance**, as everywhere in the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum DistExpr {
    /// `N(mean, var)`.
    Gaussian {
        /// Mean (may be symbolic).
        mean: Value,
        /// Variance (may be symbolic; realized before use).
        var: Value,
    },
    /// `Beta(alpha, beta)`.
    Beta {
        /// First shape parameter.
        alpha: Value,
        /// Second shape parameter.
        beta: Value,
    },
    /// `Bernoulli(p)`.
    Bernoulli {
        /// Success probability (may be a Beta-distributed variable).
        p: Value,
    },
    /// `Uniform(lo, hi)` on floats.
    Uniform {
        /// Lower bound.
        lo: Value,
        /// Upper bound.
        hi: Value,
    },
    /// `Gamma(shape, rate)`.
    Gamma {
        /// Shape parameter.
        shape: Value,
        /// Rate parameter.
        rate: Value,
    },
    /// `Poisson(rate)`.
    Poisson {
        /// Rate (may be a scaled Gamma-distributed variable).
        rate: Value,
    },
    /// `Exponential(rate)`.
    Exponential {
        /// Rate (may be a scaled Gamma-distributed variable).
        rate: Value,
    },
    /// `Binomial(n, p)`.
    Binomial {
        /// Number of trials.
        n: Value,
        /// Success probability (may be a Beta-distributed variable).
        p: Value,
    },
    /// Point mass.
    Dirac {
        /// The point.
        point: Value,
    },
    /// Multivariate Gaussian `N(A·x + b, cov)` with a (possibly symbolic)
    /// vector-valued `x` — the matrix-affine form the authors'
    /// implementation uses for its tracker examples. With `A = I`,
    /// `b = 0`, this is a plain `N(x, cov)`. Boxed: the inline matrices
    /// would otherwise triple `size_of::<DistExpr>()`, and scalar models
    /// construct (and move) two `DistExpr`s per particle per tick.
    MvGaussian(Box<MvGaussianExpr>),
}

/// Parameters of [`DistExpr::MvGaussian`] (see there for why it is boxed).
#[derive(Debug, Clone, PartialEq)]
pub struct MvGaussianExpr {
    /// Link matrix `A` (`m × d`).
    pub a: Matrix,
    /// The parent value: a symbolic multivariate variable
    /// ([`Value::Rv`]) or a concrete float array.
    pub x: Value,
    /// Offset `b` (`m`).
    pub b: Vector,
    /// Conditional covariance (`m × m`).
    pub cov: Matrix,
}

impl DistExpr {
    /// `N(mean, var)` constructor.
    pub fn gaussian(mean: impl Into<Value>, var: impl Into<Value>) -> Self {
        DistExpr::Gaussian {
            mean: mean.into(),
            var: var.into(),
        }
    }

    /// `Beta(alpha, beta)` constructor.
    pub fn beta(alpha: impl Into<Value>, beta: impl Into<Value>) -> Self {
        DistExpr::Beta {
            alpha: alpha.into(),
            beta: beta.into(),
        }
    }

    /// `Bernoulli(p)` constructor.
    pub fn bernoulli(p: impl Into<Value>) -> Self {
        DistExpr::Bernoulli { p: p.into() }
    }

    /// `Uniform(lo, hi)` constructor.
    pub fn uniform(lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        DistExpr::Uniform {
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// `Gamma(shape, rate)` constructor.
    pub fn gamma(shape: impl Into<Value>, rate: impl Into<Value>) -> Self {
        DistExpr::Gamma {
            shape: shape.into(),
            rate: rate.into(),
        }
    }

    /// `Poisson(rate)` constructor.
    pub fn poisson(rate: impl Into<Value>) -> Self {
        DistExpr::Poisson { rate: rate.into() }
    }

    /// `Exponential(rate)` constructor.
    pub fn exponential(rate: impl Into<Value>) -> Self {
        DistExpr::Exponential { rate: rate.into() }
    }

    /// `Binomial(n, p)` constructor.
    pub fn binomial(n: impl Into<Value>, p: impl Into<Value>) -> Self {
        DistExpr::Binomial {
            n: n.into(),
            p: p.into(),
        }
    }

    /// Point-mass constructor.
    pub fn dirac(point: impl Into<Value>) -> Self {
        DistExpr::Dirac {
            point: point.into(),
        }
    }

    /// `N(x, cov)` constructor over vectors (identity link).
    pub fn mv_gaussian(x: impl Into<Value>, cov: Matrix) -> Self {
        let d = cov.rows();
        DistExpr::MvGaussian(Box::new(MvGaussianExpr {
            a: Matrix::identity(d),
            x: x.into(),
            b: Vector::zeros(d),
            cov,
        }))
    }

    /// `N(A·x + b, cov)` constructor (matrix-affine link).
    pub fn mv_gaussian_affine(a: Matrix, x: impl Into<Value>, b: Vector, cov: Matrix) -> Self {
        DistExpr::MvGaussian(Box::new(MvGaussianExpr {
            a,
            x: x.into(),
            b,
            cov,
        }))
    }

    /// The parameters, in declaration order.
    pub fn params(&self) -> Vec<&Value> {
        match self {
            DistExpr::Gaussian { mean, var } => vec![mean, var],
            DistExpr::Beta { alpha, beta } => vec![alpha, beta],
            DistExpr::Bernoulli { p } => vec![p],
            DistExpr::Uniform { lo, hi } => vec![lo, hi],
            DistExpr::Gamma { shape, rate } => vec![shape, rate],
            DistExpr::Poisson { rate } => vec![rate],
            DistExpr::Exponential { rate } => vec![rate],
            DistExpr::Binomial { n, p } => vec![n, p],
            DistExpr::Dirac { point } => vec![point],
            DistExpr::MvGaussian(e) => vec![&e.x],
        }
    }

    /// Mutable access to the parameters, in declaration order.
    pub fn params_mut(&mut self) -> Vec<&mut Value> {
        match self {
            DistExpr::Gaussian { mean, var } => vec![mean, var],
            DistExpr::Beta { alpha, beta } => vec![alpha, beta],
            DistExpr::Bernoulli { p } => vec![p],
            DistExpr::Uniform { lo, hi } => vec![lo, hi],
            DistExpr::Gamma { shape, rate } => vec![shape, rate],
            DistExpr::Poisson { rate } => vec![rate],
            DistExpr::Exponential { rate } => vec![rate],
            DistExpr::Binomial { n, p } => vec![n, p],
            DistExpr::Dirac { point } => vec![point],
            DistExpr::MvGaussian(e) => vec![&mut e.x],
        }
    }

    /// Whether any parameter is symbolic.
    pub fn is_symbolic(&self) -> bool {
        self.params().iter().any(|p| p.is_symbolic())
    }

    /// Converts to a concrete distribution, requiring every parameter to be
    /// a concrete value.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NeedsValue`] if a parameter is symbolic;
    /// [`RuntimeError::Param`] if parameters are invalid;
    /// [`RuntimeError::TypeMismatch`] on ill-typed parameters.
    pub fn concrete(&self) -> Result<Marginal, RuntimeError> {
        match self {
            DistExpr::Gaussian { mean, var } => Ok(Marginal::Gaussian(dist::Gaussian::new(
                mean.as_float()?,
                var.as_float()?,
            )?)),
            DistExpr::Beta { alpha, beta } => Ok(Marginal::Beta(dist::Beta::new(
                alpha.as_float()?,
                beta.as_float()?,
            )?)),
            DistExpr::Bernoulli { p } => {
                Ok(Marginal::Bernoulli(dist::Bernoulli::new(p.as_float()?)?))
            }
            DistExpr::Uniform { lo, hi } => Ok(Marginal::Uniform(dist::Uniform::new(
                lo.as_float()?,
                hi.as_float()?,
            )?)),
            DistExpr::Gamma { shape, rate } => Ok(Marginal::Gamma(dist::Gamma::new(
                shape.as_float()?,
                rate.as_float()?,
            )?)),
            DistExpr::Poisson { rate } => {
                Ok(Marginal::Poisson(dist::Poisson::new(rate.as_float()?)?))
            }
            DistExpr::Exponential { rate } => Ok(Marginal::Exponential(dist::Exponential::new(
                rate.as_float()?,
            )?)),
            DistExpr::Binomial { n, p } => Ok(Marginal::Binomial(dist::Binomial::new(
                n.as_count()?,
                p.as_float()?,
            )?)),
            DistExpr::Dirac { point } => {
                if point.is_symbolic() {
                    Err(RuntimeError::NeedsValue(point.to_string()))
                } else {
                    Ok(Marginal::Dirac(Box::new(point.clone())))
                }
            }
            DistExpr::MvGaussian(e) => {
                let MvGaussianExpr { a, x, b, cov } = &**e;
                let xv = x.as_vector()?;
                Ok(Marginal::MvGaussian(Box::new(dist::MvGaussian::new(
                    a.mul_vec(&xv).add(b),
                    cov.clone(),
                )?)))
            }
        }
    }
}

impl std::fmt::Display for DistExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistExpr::Gaussian { mean, var } => write!(f, "gaussian({mean}, {var})"),
            DistExpr::Beta { alpha, beta } => write!(f, "beta({alpha}, {beta})"),
            DistExpr::Bernoulli { p } => write!(f, "bernoulli({p})"),
            DistExpr::Uniform { lo, hi } => write!(f, "uniform({lo}, {hi})"),
            DistExpr::Gamma { shape, rate } => write!(f, "gamma({shape}, {rate})"),
            DistExpr::Poisson { rate } => write!(f, "poisson({rate})"),
            DistExpr::Exponential { rate } => write!(f, "exponential({rate})"),
            DistExpr::Binomial { n, p } => write!(f, "binomial({n}, {p})"),
            DistExpr::Dirac { point } => write!(f, "dirac({point})"),
            DistExpr::MvGaussian(e) => {
                write!(
                    f,
                    "mv_gaussian({}x{}·{}, dim {})",
                    e.a.rows(),
                    e.a.cols(),
                    e.x,
                    e.cov.rows()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::AffExpr;

    /// `Value` is copied and stored on every step of every particle. A
    /// layout that inlined three full `(RvId, f64)` terms in `AffExpr` made
    /// `Value` 64 bytes and `DistExpr` 136: the native engines lost 13% of
    /// their ticks/s and the DSL twins' peak RSS rose by a third. Keep the
    /// inline terms at `u16` ids so both stay at 40 bytes.
    #[test]
    fn value_and_affine_terms_stay_40_bytes() {
        assert_eq!(std::mem::size_of::<AffExpr>(), 40);
        assert_eq!(std::mem::size_of::<Value>(), 40);
        assert_eq!(std::mem::size_of::<DistExpr>(), 88);
    }

    #[test]
    fn accessors_check_types() {
        assert_eq!(Value::Float(1.5).as_float().unwrap(), 1.5);
        assert!(Value::Bool(true).as_float().is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::Int(3).as_count().unwrap(), 3);
        assert!(Value::Int(-1).as_count().is_err());
    }

    #[test]
    fn constant_affine_is_accepted_as_float() {
        let v = Value::Aff(AffExpr::constant(2.0));
        assert_eq!(v.as_float().unwrap(), 2.0);
        let sym = Value::Aff(AffExpr::var(RvId(0)));
        assert!(matches!(sym.as_float(), Err(RuntimeError::NeedsValue(_))));
    }

    #[test]
    fn simplify_collapses_constants() {
        let v = Value::Aff(AffExpr::constant(3.0)).simplify();
        assert_eq!(v, Value::Float(3.0));
        let p = Value::pair(Value::Aff(AffExpr::constant(1.0)), Value::Unit).simplify();
        assert_eq!(p, Value::pair(Value::Float(1.0), Value::Unit));
    }

    #[test]
    fn for_each_rv_walks_everything() {
        let d = DistExpr::gaussian(Value::Aff(AffExpr::var(RvId(3))), 1.0);
        let v = Value::pair(Value::Rv(RvId(1)), Value::dist(d));
        let mut seen = vec![];
        v.for_each_rv(&mut |x| seen.push(x.index()));
        assert_eq!(seen, vec![1, 3]);
        assert!(v.is_symbolic());
        assert!(!Value::Float(0.0).is_symbolic());
    }

    #[test]
    fn concrete_distributions_validate() {
        assert!(DistExpr::gaussian(0.0, 1.0).concrete().is_ok());
        assert!(DistExpr::gaussian(0.0, -1.0).concrete().is_err());
        let sym = DistExpr::gaussian(Value::Aff(AffExpr::var(RvId(0))), 1.0);
        assert!(matches!(sym.concrete(), Err(RuntimeError::NeedsValue(_))));
        assert!(sym.is_symbolic());
    }

    #[test]
    fn display_values() {
        assert_eq!(
            Value::pair(Value::Int(1), Value::Bool(true)).to_string(),
            "(1, true)"
        );
        assert_eq!(
            Value::dist(DistExpr::bernoulli(0.5)).to_string(),
            "bernoulli(0.5)"
        );
        assert_eq!(Value::Unit.to_string(), "()");
    }
}
