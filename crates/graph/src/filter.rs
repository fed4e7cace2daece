//! Filters: the basic unit of stream computation.

use crate::types::{DataType, Value};
use crate::work::{LValue, Stmt};

/// Initial value of a piece of filter state.
#[derive(Debug, Clone, PartialEq)]
pub enum StateInit {
    /// Scalar state variable.
    Scalar(Value),
    /// Array state variable with explicit initial contents (the length of
    /// the vector is the array length).
    Array(Vec<Value>),
}

impl StateInit {
    /// Number of scalar slots this state occupies.
    pub fn len(&self) -> usize {
        match self {
            StateInit::Scalar(_) => 1,
            StateInit::Array(v) => v.len(),
        }
    }

    /// `true` when an array state has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A filter state variable, initialized by `init` at elaboration time.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVar {
    pub name: String,
    pub ty: DataType,
    pub init: StateInit,
}

impl StateVar {
    /// Scalar state variable helper.
    pub fn scalar(name: impl Into<String>, ty: DataType, init: Value) -> Self {
        StateVar {
            name: name.into(),
            ty,
            init: StateInit::Scalar(init),
        }
    }

    /// Array state variable helper.
    pub fn array(name: impl Into<String>, ty: DataType, init: Vec<Value>) -> Self {
        StateVar {
            name: name.into(),
            ty,
            init: StateInit::Array(init),
        }
    }
}

/// A teleport-message handler: a named void method that may update filter
/// state.  Per the paper's restrictions, a handler must not touch the
/// filter's tapes (checked by [`mod@crate::validate`]); it may send further
/// messages.
#[derive(Debug, Clone, PartialEq)]
pub struct Handler {
    pub name: String,
    /// Parameter names and types, bound to message arguments on delivery.
    pub params: Vec<(String, DataType)>,
    pub body: Vec<Stmt>,
}

/// Optional "prework": a body run exactly once before the first `work`
/// invocation, with its own rates.  This models StreamIt filters whose
/// `init` function pushes/pops items (e.g. delay lines).
#[derive(Debug, Clone, PartialEq)]
pub struct PreWork {
    pub peek: usize,
    pub pop: usize,
    pub push: usize,
    pub body: Vec<Stmt>,
}

/// A filter: single input tape, single output tape, static rates and a
/// work function.
///
/// Sources are filters with `pop == peek == 0` and `input == None`;
/// sinks are filters with `push == 0` and `output == None`.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    /// Instance name (unique within its parent; hierarchical names are
    /// assigned during flattening).
    pub name: String,
    /// Input item type (`None` for sources).
    pub input: Option<DataType>,
    /// Output item type (`None` for sinks).
    pub output: Option<DataType>,
    /// Items inspected per invocation (`peek >= pop`).
    pub peek: usize,
    /// Items consumed per invocation.
    pub pop: usize,
    /// Items produced per invocation.
    pub push: usize,
    /// State variables, persistent across invocations.
    pub state: Vec<StateVar>,
    /// The work function body.
    pub work: Vec<Stmt>,
    /// Optional one-shot prework.
    pub prework: Option<PreWork>,
    /// Teleport-message handlers this filter exposes.
    pub handlers: Vec<Handler>,
    /// Optional compiled-kernel hint describing what `work` computes
    /// (attached by the linear optimizer when it materializes a node).
    /// The work IR remains the reference semantics; engines must
    /// validate the hint against the declared rates before using it.
    pub kernel: Option<crate::kernel::KernelSpec>,
}

impl Filter {
    /// The identity filter for a type: `push(pop())`.
    pub fn identity(name: impl Into<String>, ty: DataType) -> Filter {
        Filter {
            name: name.into(),
            input: Some(ty),
            output: Some(ty),
            peek: 1,
            pop: 1,
            push: 1,
            state: Vec::new(),
            work: vec![Stmt::Push(crate::work::Expr::Pop)],
            prework: None,
            handlers: Vec::new(),
            kernel: None,
        }
    }

    /// `true` if the filter peeks beyond what it pops (a *sliding window*
    /// filter).  Peeking filters cannot be fused without introducing
    /// shared state, and once fused cannot be fissed (paper, §Benchmarks).
    pub fn is_peeking(&self) -> bool {
        self.peek > self.pop
    }

    /// `true` if the filter is a source (consumes nothing).
    pub fn is_source(&self) -> bool {
        self.input.is_none()
    }

    /// `true` if the filter is a sink (produces nothing).
    pub fn is_sink(&self) -> bool {
        self.output.is_none()
    }

    /// `true` if a graph pass made this filter — horizontal fusion, or
    /// fission's replicas — from others.  Such a filter is named after
    /// its node's path, which holds a `/`, where an elaborated filter
    /// carries its declared identifier.
    pub fn made_by_pass(&self) -> bool {
        self.name.contains('/')
    }

    /// `true` if the filter carries *mutable* state: some state variable is
    /// written by `work` or `prework`, or the filter has message handlers
    /// (whose deliveries mutate state asynchronously).
    ///
    /// Read-only state (e.g. FIR coefficient tables) does **not** make a
    /// filter stateful: such filters can still be data-parallelized.
    pub fn is_stateful(&self) -> bool {
        if !self.handlers.is_empty() {
            return true;
        }
        let state_names: std::collections::HashSet<&str> =
            self.state.iter().map(|s| s.name.as_str()).collect();
        let mut mutated = false;
        let mut scan = |body: &[Stmt]| {
            crate::work::visit_block(body, &mut |s| {
                if let Stmt::Assign { target, .. } = s {
                    let n = match target {
                        LValue::Var(n) | LValue::Index(n, _) => n.as_str(),
                    };
                    if state_names.contains(n) {
                        mutated = true;
                    }
                }
            });
        };
        scan(&self.work);
        if let Some(pw) = &self.prework {
            scan(&pw.body);
        }
        mutated
    }

    /// Find a handler by name.
    pub fn handler(&self, name: &str) -> Option<&Handler> {
        self.handlers.iter().find(|h| h.name == name)
    }

    /// Check the declared rates against the statically-inferred tape
    /// effects of the work body, when inference succeeds.
    ///
    /// Returns `Err((inferred_pop, inferred_peek, inferred_push))` on
    /// mismatch; `Ok(true)` when verified; `Ok(false)` when the body is
    /// not statically analyzable (declared rates are then trusted).
    pub fn check_rates(&self) -> Result<bool, (usize, usize, usize)> {
        match crate::work::static_rates(&self.work) {
            None => Ok(false),
            Some((pop, peek, push)) => {
                if pop == self.pop && push == self.push && peek <= self.peek.max(pop) {
                    Ok(true)
                } else {
                    Err((pop, peek, push))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{BinOp, Expr};

    fn map_filter() -> Filter {
        Filter {
            name: "double".into(),
            input: Some(DataType::Int),
            output: Some(DataType::Int),
            peek: 1,
            pop: 1,
            push: 1,
            state: vec![],
            work: vec![Stmt::Push(Expr::Binary(
                BinOp::Mul,
                Box::new(Expr::Pop),
                Box::new(Expr::IntLit(2)),
            ))],
            prework: None,
            handlers: vec![],
            kernel: None,
        }
    }

    #[test]
    fn identity_rates() {
        let f = Filter::identity("id", DataType::Float);
        assert_eq!((f.peek, f.pop, f.push), (1, 1, 1));
        assert!(!f.is_peeking());
        assert!(!f.is_stateful());
        assert_eq!(f.check_rates(), Ok(true));
    }

    #[test]
    fn stateful_detection_mutation() {
        let mut f = map_filter();
        f.state
            .push(StateVar::scalar("acc", DataType::Int, Value::Int(0)));
        // Reading state only: still stateless.
        assert!(!f.is_stateful());
        f.work.push(Stmt::Assign {
            target: LValue::Var("acc".into()),
            value: Expr::IntLit(1),
        });
        assert!(f.is_stateful());
    }

    #[test]
    fn handlers_make_stateful() {
        let mut f = map_filter();
        f.handlers.push(Handler {
            name: "setGain".into(),
            params: vec![("g".into(), DataType::Float)],
            body: vec![],
        });
        assert!(f.is_stateful());
    }

    #[test]
    fn rate_mismatch_detected() {
        let mut f = map_filter();
        f.push = 2; // body only pushes once
        assert_eq!(f.check_rates(), Err((1, 1, 1)));
    }

    #[test]
    fn read_only_array_state_is_stateless() {
        let mut f = map_filter();
        f.state.push(StateVar::array(
            "coeff",
            DataType::Float,
            vec![Value::Float(1.0), Value::Float(2.0)],
        ));
        f.work = vec![Stmt::Push(Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::Pop),
            Box::new(Expr::Index("coeff".into(), Box::new(Expr::IntLit(0)))),
        ))];
        assert!(!f.is_stateful());
    }
}
