//! Adapters that time the native model step and the probabilistic
//! context from outside, through the public `Model` and `ProbCtx` traits.
//! Both forward every call unchanged, so a traced engine produces the
//! same posterior bits as an untraced one.

use crate::alloc;
use probzelus::core::error::RuntimeError;
use probzelus::core::model::Model;
use probzelus::core::prob::ProbCtx;
use probzelus::core::value::{DistExpr, Value};
use probzelus::core::ValueDist;
use std::cell::Cell;
use std::time::Instant;

/// Time and allocations spent inside one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Nanoseconds inside the layer.
    pub ns: u64,
    /// Calls into the layer.
    pub calls: u64,
    /// Allocations made inside the layer (zero unless counting is on).
    pub allocs: u64,
}

/// What the adapters measured: the model step (including the context
/// calls it makes) and the context calls alone.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Inside `Model::step`.
    pub model: Span,
    /// Inside `ProbCtx` methods.
    pub prob: Span,
}

thread_local! {
    static TOTALS: Cell<Totals> = Cell::new(Totals::default());
}

/// Reads and clears the totals accumulated on this thread.
pub fn take() -> Totals {
    TOTALS.with(|t| t.replace(Totals::default()))
}

fn timed<R>(f: impl FnOnce() -> R, add: impl FnOnce(&mut Totals, Span)) -> R {
    let a0 = alloc::count();
    let t0 = Instant::now();
    let r = f();
    let span = Span {
        ns: t0.elapsed().as_nanos() as u64,
        calls: 1,
        allocs: alloc::count() - a0,
    };
    TOTALS.with(|t| {
        let mut totals = t.get();
        add(&mut totals, span);
        t.set(totals);
    });
    r
}

impl std::ops::AddAssign for Span {
    fn add_assign(&mut self, s: Span) {
        self.ns += s.ns;
        self.calls += s.calls;
        self.allocs += s.allocs;
    }
}

impl std::ops::AddAssign for Totals {
    fn add_assign(&mut self, t: Totals) {
        self.model += t.model;
        self.prob += t.prob;
    }
}

/// A native model whose steps are timed and whose context is traced.
#[derive(Debug, Clone)]
pub struct Traced<M>(pub M);

impl<M: Model> Model for Traced<M> {
    type Input = M::Input;

    fn step(&mut self, ctx: &mut dyn ProbCtx, input: &M::Input) -> Result<Value, RuntimeError> {
        let mut ctx = TracedCtx(ctx);
        timed(|| self.0.step(&mut ctx, input), |t, s| t.model += s)
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        self.0.for_each_state_value(f);
    }
}

/// A probabilistic context whose every method is timed and forwarded.
pub struct TracedCtx<'a>(pub &'a mut dyn ProbCtx);

fn prob<R>(f: impl FnOnce() -> R) -> R {
    timed(f, |t, s| t.prob += s)
}

impl ProbCtx for TracedCtx<'_> {
    fn sample(&mut self, d: &DistExpr) -> Result<Value, RuntimeError> {
        prob(|| self.0.sample(d))
    }

    fn observe(&mut self, d: &DistExpr, v: &Value) -> Result<(), RuntimeError> {
        prob(|| self.0.observe(d, v))
    }

    fn factor(&mut self, log_w: f64) {
        prob(|| self.0.factor(log_w));
    }

    fn force(&mut self, v: &Value) -> Result<Value, RuntimeError> {
        prob(|| self.0.force(v))
    }

    fn dist_of(&mut self, v: &Value) -> Result<ValueDist, RuntimeError> {
        prob(|| self.0.dist_of(v))
    }

    // Defaulted in the trait: without this forward the default (a plain
    // clone) would silently replace the engine's own simplification.
    fn simplify(&mut self, v: &Value) -> Value {
        prob(|| self.0.simplify(v))
    }

    fn log_weight(&self) -> f64 {
        prob(|| self.0.log_weight())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Fingerprint;
    use probzelus::core::infer::{Infer, Method};
    use probzelus::robot::{GpsAccTracker, RobotPhysics, TrackerInput};

    /// Records which methods were called.
    #[derive(Default)]
    struct Recorder(Vec<&'static str>);

    impl ProbCtx for Recorder {
        fn sample(&mut self, _: &DistExpr) -> Result<Value, RuntimeError> {
            self.0.push("sample");
            Ok(Value::Float(1.0))
        }
        fn observe(&mut self, _: &DistExpr, _: &Value) -> Result<(), RuntimeError> {
            self.0.push("observe");
            Ok(())
        }
        fn factor(&mut self, _: f64) {
            self.0.push("factor");
        }
        fn force(&mut self, v: &Value) -> Result<Value, RuntimeError> {
            self.0.push("force");
            Ok(v.clone())
        }
        fn dist_of(&mut self, v: &Value) -> Result<ValueDist, RuntimeError> {
            self.0.push("dist_of");
            Ok(ValueDist::Dirac(v.clone()))
        }
        fn simplify(&mut self, v: &Value) -> Value {
            self.0.push("simplify");
            v.clone()
        }
        fn log_weight(&self) -> f64 {
            -2.5
        }
    }

    #[test]
    fn traced_ctx_forwards_every_method() {
        let mut rec = Recorder::default();
        let d = DistExpr::gaussian(0.0, 1.0);
        let x = Value::Float(0.5);
        take();
        {
            let mut ctx = TracedCtx(&mut rec);
            ctx.sample(&d).unwrap();
            ctx.observe(&d, &x).unwrap();
            ctx.factor(0.1);
            ctx.force(&x).unwrap();
            ctx.dist_of(&x).unwrap();
            ctx.simplify(&x);
            assert_eq!(ctx.log_weight(), -2.5);
        }
        assert_eq!(
            rec.0,
            ["sample", "observe", "factor", "force", "dist_of", "simplify"]
        );
        assert_eq!(take().prob.calls, 7);
    }

    fn robot_sds_bits<M: Model<Input = TrackerInput>>(model: M) -> Fingerprint {
        let mut physics = RobotPhysics::new(5, 4);
        let mut engine = Infer::with_seed(Method::StreamingDs, 20, model, 9);
        let mut fp = Fingerprint::default();
        for t in 0..60 {
            let cmd = if t % 20 < 10 { 0.5 } else { -0.5 };
            let s = physics.step(cmd);
            let input = TrackerInput {
                a_obs: s.a_obs,
                gps: s.gps,
                cmd,
            };
            fp.push(engine.step(&input).unwrap().mean_float());
        }
        fp
    }

    #[test]
    fn traced_robot_sds_keeps_the_posterior_bits() {
        let plain = robot_sds_bits(GpsAccTracker::default());
        assert_eq!(plain, robot_sds_bits(Traced(GpsAccTracker::default())));
    }
}
