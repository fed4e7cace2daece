//! Typed diagnostics: a single, workspace-wide error surface.
//!
//! Every layer of the pipeline has its own precise error type
//! ([`streamit_frontend::FrontendError`], [`streamit_graph::SteadyError`],
//! [`streamit_interp::RuntimeError`], ...).  [`Diag`] is the uniform view
//! over all of them: a stable error *code*, a *category* that maps to a
//! documented process exit code, a human-readable message, and a source
//! span when the underlying error carries one.
//!
//! Code table (stable; tests and tooling match on these):
//!
//! | code  | category | meaning |
//! |-------|----------|---------|
//! | E0101 | Parse    | lexical error |
//! | E0102 | Parse    | syntax error |
//! | E0103 | Parse    | parser recursion-depth limit |
//! | E0201 | Semantic | elaboration error (bad args, budget, arrays) |
//! | E0202 | Semantic | stream-graph validation failure |
//! | E0203 | Semantic | inconsistent steady-state rates |
//! | E0204 | Semantic | repetition vector overflow |
//! | E0301 | Verify   | deadlock/overflow verification failure |
//! | E0401 | Runtime  | tape underflow |
//! | E0402 | Runtime  | unknown variable |
//! | E0403 | Runtime  | index out of bounds |
//! | E0404 | Runtime  | division by zero |
//! | E0405 | Runtime  | rate violation |
//! | E0406 | Runtime  | deadlock |
//! | E0407 | Runtime  | undeliverable message |
//! | E0408 | Runtime  | starved (input tape ran dry) |
//! | E0409 | Runtime  | channel capacity exceeded |
//! | E0501 | Budget   | firing budget exhausted |
//! | E0502 | Budget   | per-firing statement budget exhausted |
//! | E0601 | Analysis | work/prework pop or push count disagrees with the declared rate on some path |
//! | E0602 | Analysis | work/prework requires more input than the declared peek window |
//! | E0603 | Analysis | peek index not provably non-negative |
//! | E0701 | Engine   | graph not supported by the compiled engine (fall back to reference) |
//! | E0702 | Runtime  | compiled-engine fault (rate violation, bounds, division by zero) |
//! | E0703 | Runtime  | compiled run starved (insufficient external input) |
//! | E0704 | Runtime  | compiled run requested output from a graph with none |
//! | E0705 | Runtime  | a worker panicked; caught and attributed to its stage with the panic payload |
//! | E0706 | Runtime  | the stall watchdog saw no progress for a full deadline; carries a per-stage snapshot |
//! | E0707 | —        | retired with `--profile-in` (was: malformed profile file); never reused |
//! | E0708 | Runtime  | a run's input or output ring is too large to allocate (`--run N` past this host's memory); reported before any firing |
//! | E0801 | Engine   | `streamd` admission rejected: instance table at `--max-instances` |
//! | E0802 | Engine   | `streamd`: unknown program name in an `OPEN` request |
//! | E0803 | Runtime  | `streamd`: an instance's worker panicked; the instance was evicted |
//! | E0804 | Runtime  | `streamd`: an instance made no progress for the stall deadline; evicted |
//! | E0805 | Budget   | `streamd`: per-instance firing budget (`--instance-budget`) exhausted; evicted |
//! | E0806 | Runtime  | `streamd`: malformed protocol command |
//! | E0807 | Parse    | `streamd`: invalid daemon configuration (bad `--listen`, `--max-instances 0`, bad budget) |
//! | E0808 | Runtime  | `streamd`: unknown instance id (never opened, closed, or already evicted) |
//!
//! The `E08xx` block is the `streamd` daemon's taxonomy (see
//! `crates/streamd`).  Most of those diagnostics travel over the wire
//! as `ERR <code> <message>` responses rather than ending a process;
//! only `E0807` maps to a `streamd` process exit (code 2, like every
//! usage error).
//!
//! Static-analysis *lints* (`L0601`–`L0605`, see
//! [`streamit_analysis`]) are warnings, not errors: they print but never
//! gate execution and have no exit code.

use crate::CompileError;
use streamit_frontend::{FrontendError, SourcePos};
use streamit_graph::SteadyError;
use streamit_interp::RuntimeError;

/// Broad failure class; determines the process exit code of `streamitc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCategory {
    /// Lexical or syntactic failure (exit code 2).
    Parse,
    /// Elaboration, validation, or rate-consistency failure (exit code 3).
    Semantic,
    /// Deadlock/overflow verification failure (exit code 4).
    Verify,
    /// Execution failure (exit code 5).
    Runtime,
    /// A resource budget was exhausted (exit code 6).
    Budget,
    /// A static-analysis proof obligation failed (exit code 7).
    Analysis,
    /// The selected execution engine cannot run the graph (exit code 8).
    Engine,
}

impl DiagCategory {
    /// The documented `streamitc` exit code for this category.
    pub fn exit_code(self) -> i32 {
        match self {
            DiagCategory::Parse => 2,
            DiagCategory::Semantic => 3,
            DiagCategory::Verify => 4,
            DiagCategory::Runtime => 5,
            DiagCategory::Budget => 6,
            DiagCategory::Analysis => 7,
            DiagCategory::Engine => 8,
        }
    }
}

/// A source location (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl From<SourcePos> for Span {
    fn from(p: SourcePos) -> Span {
        Span {
            line: p.line,
            col: p.col,
        }
    }
}

/// A typed diagnostic: stable code, category, message, optional span.
#[derive(Debug, Clone, PartialEq)]
pub struct Diag {
    /// Stable error code (`E0102`, ...); see the module table.
    pub code: &'static str,
    /// Failure class, mapping to a documented exit code.
    pub category: DiagCategory,
    /// Human-readable description.
    pub message: String,
    /// Source location, when the underlying error carries one.
    pub span: Option<Span>,
}

impl Diag {
    fn new(
        code: &'static str,
        category: DiagCategory,
        message: String,
        span: Option<Span>,
    ) -> Diag {
        Diag {
            code,
            category,
            message,
            span,
        }
    }

    /// The process exit code `streamitc` uses for this diagnostic.
    pub fn exit_code(&self) -> i32 {
        self.category.exit_code()
    }

    /// An `E08xx` daemon diagnostic (the `streamd` taxonomy; see the
    /// module table).  The code must come from that block — the
    /// `streamd` crate owns the mapping of fault to code/category and
    /// this constructor just keeps construction in one audited place.
    pub fn streamd(code: &'static str, category: DiagCategory, message: impl Into<String>) -> Diag {
        debug_assert!(code.starts_with("E08"), "not a streamd code: {code}");
        Diag::new(code, category, message.into(), None)
    }
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.span {
            Some(s) => write!(
                f,
                "error[{}] {}:{}: {}",
                self.code, s.line, s.col, self.message
            ),
            None => write!(f, "error[{}]: {}", self.code, self.message),
        }
    }
}

impl std::error::Error for Diag {}

impl From<FrontendError> for Diag {
    fn from(e: FrontendError) -> Diag {
        match e {
            FrontendError::Lex(l) => Diag::new(
                "E0101",
                DiagCategory::Parse,
                l.message.clone(),
                Some(l.pos.into()),
            ),
            FrontendError::Parse(p) => {
                // `parse_program` folds lexical errors into `ParseError`
                // (see the `From<LexError>` impl); recover the E0101
                // classification from the lexer's message shape.
                let code = if p.message.contains("depth limit") {
                    "E0103"
                } else if p.message.starts_with("unexpected character") {
                    "E0101"
                } else {
                    "E0102"
                };
                Diag::new(
                    code,
                    DiagCategory::Parse,
                    p.message.clone(),
                    Some(p.pos.into()),
                )
            }
            FrontendError::Elab(el) => Diag::new(
                "E0201",
                DiagCategory::Semantic,
                el.message.clone(),
                Some(el.pos.into()),
            ),
            FrontendError::Validation(errs) => Diag::new(
                "E0202",
                DiagCategory::Semantic,
                errs.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
                None,
            ),
        }
    }
}

impl From<SteadyError> for Diag {
    fn from(e: SteadyError) -> Diag {
        let code = match e {
            SteadyError::Inconsistent { .. } => "E0203",
            SteadyError::TooLarge => "E0204",
            SteadyError::Internal { .. } => "E0204",
        };
        Diag::new(code, DiagCategory::Semantic, e.to_string(), None)
    }
}

impl From<RuntimeError> for Diag {
    fn from(e: RuntimeError) -> Diag {
        let (code, category) = match &e {
            RuntimeError::TapeUnderflow { .. } => ("E0401", DiagCategory::Runtime),
            RuntimeError::UnknownVar { .. } => ("E0402", DiagCategory::Runtime),
            RuntimeError::IndexOutOfBounds { .. } => ("E0403", DiagCategory::Runtime),
            RuntimeError::DivisionByZero { .. } => ("E0404", DiagCategory::Runtime),
            RuntimeError::RateViolation { .. } => ("E0405", DiagCategory::Runtime),
            RuntimeError::Deadlock { .. } => ("E0406", DiagCategory::Runtime),
            RuntimeError::BadMessage { .. } => ("E0407", DiagCategory::Runtime),
            RuntimeError::Starved { .. } => ("E0408", DiagCategory::Runtime),
            RuntimeError::CapacityExceeded { .. } => ("E0409", DiagCategory::Runtime),
            RuntimeError::BudgetExhausted { .. } => ("E0501", DiagCategory::Budget),
            RuntimeError::StepBudgetExhausted { .. } => ("E0502", DiagCategory::Budget),
        };
        Diag::new(code, category, e.to_string(), None)
    }
}

impl From<streamit_exec::ExecError> for Diag {
    fn from(e: streamit_exec::ExecError) -> Diag {
        use streamit_exec::ExecError;
        let (code, category) = match &e {
            ExecError::Unsupported { .. } => ("E0701", DiagCategory::Engine),
            ExecError::Fault { .. } => ("E0702", DiagCategory::Runtime),
            ExecError::Starved { .. } => ("E0703", DiagCategory::Runtime),
            ExecError::NoSteadyOutput => ("E0704", DiagCategory::Runtime),
            ExecError::TooLarge { .. } => ("E0708", DiagCategory::Runtime),
            ExecError::WorkerPanic { .. } => ("E0705", DiagCategory::Runtime),
            ExecError::Stalled { .. } => ("E0706", DiagCategory::Runtime),
        };
        Diag::new(code, category, e.to_string(), None)
    }
}

impl From<CompileError> for Diag {
    fn from(e: CompileError) -> Diag {
        match e {
            CompileError::Frontend(fe) => fe.into(),
            CompileError::Validation(errs) => Diag::new(
                "E0202",
                DiagCategory::Semantic,
                errs.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
                None,
            ),
            CompileError::Verification(r) => Diag::new(
                "E0301",
                DiagCategory::Verify,
                r.deadlocks
                    .iter()
                    .chain(&r.overflows)
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
                None,
            ),
            CompileError::Schedule(se) => se.into(),
        }
    }
}

impl Diag {
    /// Convert a hard static-analysis finding into a diagnostic.  The span
    /// is supplied by the caller, which knows the work-function span map
    /// (keyed by the finding's instance path).  Lint (`L`-code) findings
    /// are warnings, not diagnostics; passing one here is a logic error
    /// and is mapped to the closest hard code.
    pub fn from_finding(f: &streamit_analysis::Finding, span: Option<Span>) -> Diag {
        let code = match f.code {
            "E0602" => "E0602",
            "E0603" => "E0603",
            _ => "E0601",
        };
        Diag::new(
            code,
            DiagCategory::Analysis,
            format!("{}: {}", f.path, f.message),
            span,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_map_to_documented_exit_codes() {
        assert_eq!(DiagCategory::Parse.exit_code(), 2);
        assert_eq!(DiagCategory::Semantic.exit_code(), 3);
        assert_eq!(DiagCategory::Verify.exit_code(), 4);
        assert_eq!(DiagCategory::Runtime.exit_code(), 5);
        assert_eq!(DiagCategory::Budget.exit_code(), 6);
        assert_eq!(DiagCategory::Analysis.exit_code(), 7);
        assert_eq!(DiagCategory::Engine.exit_code(), 8);
    }

    #[test]
    fn exec_errors_map_to_codes() {
        let d: Diag = streamit_exec::ExecError::Unsupported {
            reason: "teleport".into(),
        }
        .into();
        assert_eq!(d.code, "E0701");
        assert_eq!(d.exit_code(), 8);
        let d: Diag = streamit_exec::ExecError::Starved { needed: 4, have: 1 }.into();
        assert_eq!(d.code, "E0703");
        assert_eq!(d.exit_code(), 5);
        let d: Diag = streamit_exec::ExecError::WorkerPanic {
            stage: "stage 1".into(),
            payload: "index out of bounds".into(),
        }
        .into();
        assert_eq!(d.code, "E0705");
        assert_eq!(d.exit_code(), 5);
        assert!(d.to_string().contains("stage 1"));
        assert!(d.to_string().contains("index out of bounds"));
        let d: Diag = streamit_exec::ExecError::Stalled {
            deadline_ms: 250,
            stages: vec![streamit_exec::StageSnapshot {
                stage: 0,
                iterations: 7,
                state: "blocked draining link 0 (stage 0 -> 1)".into(),
            }],
        }
        .into();
        assert_eq!(d.code, "E0706");
        assert_eq!(d.exit_code(), 5);
        assert!(d.to_string().contains("250 ms"));
        assert!(d.to_string().contains("7 iterations"));
    }

    #[test]
    fn findings_convert_with_span_and_category() {
        let f = streamit_analysis::Finding {
            code: "E0602",
            severity: streamit_analysis::Severity::Error,
            path: "Main/f".into(),
            message: "peek too far".into(),
        };
        let d = Diag::from_finding(&f, Some(Span { line: 3, col: 9 }));
        assert_eq!(d.code, "E0602");
        assert_eq!(d.category, DiagCategory::Analysis);
        assert_eq!(d.exit_code(), 7);
        assert_eq!(d.to_string(), "error[E0602] 3:9: Main/f: peek too far");
    }

    #[test]
    fn runtime_errors_map_to_codes() {
        let d: Diag = RuntimeError::Starved { detail: "x".into() }.into();
        assert_eq!(d.code, "E0408");
        assert_eq!(d.exit_code(), 5);
        let d: Diag = RuntimeError::BudgetExhausted { fired: 1 }.into();
        assert_eq!(d.code, "E0501");
        assert_eq!(d.exit_code(), 6);
    }

    #[test]
    fn parse_errors_carry_spans() {
        let err = streamit_frontend::parse_program("int->int filter F {")
            .expect_err("unterminated filter must fail");
        let d: Diag = FrontendError::Parse(err).into();
        assert_eq!(d.code, "E0102");
        assert!(d.span.is_some());
        assert_eq!(d.exit_code(), 2);
    }
}
