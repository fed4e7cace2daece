//! # streamit-analysis
//!
//! Static analysis of work functions: an interval-domain abstract
//! interpreter ([`absint`]) over the work-function IR
//! ([`streamit_graph::work`]), plus the checks the compiler hangs on it:
//!
//! 1. **Rate conformance** — the interval of pop/push counts the body can
//!    perform must equal the declared rates on every path (the paper's
//!    static-rate restriction, verified instead of trusted).
//! 2. **Peek-bounds proof** — the maximum peek reach must fit inside the
//!    declared peek window, and every peek index must be provably
//!    non-negative.
//! 3. **Lints** — structural hygiene findings reported as warnings.
//!
//! Finding codes are stable (tests and tooling match on them):
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | E0601 | error    | work/prework pop or push count disagrees with the declared rate on some path |
//! | E0602 | error    | work/prework requires more input items than the declared peek window |
//! | E0603 | error    | a `peek(e)` index is not provably non-negative |
//! | L0601 | warning  | state field never referenced by work/prework/handlers |
//! | L0602 | warning  | statically unreachable code (constant `if` arm, empty-range `for`) |
//! | L0603 | warning  | tape operation inside an `if` condition whose arms also touch the tape |
//! | L0604 | warning  | declared peek window exceeds what the body can ever reach |
//! | L0605 | warning  | rates not statically provable (data-dependent); runtime checks apply |
//! | L0606 | warning  | value stored to a variable is never read (dead store) |
//! | L0607 | warning  | `if` condition is provably constant (dead branch) |
//! | L0608 | warning  | `peek` with a loop-invariant index inside a loop (hoistable read) |
//! | L0701 | warning  | a kernel hint was dropped during lowering (reported by `streamit-exec`) |
//!
//! `E`-codes are hard diagnostics: `streamitc` refuses to execute or
//! schedule a program that carries any (exit code 7).  `L`-codes print
//! and never gate.
//!
//! Beyond diagnostics, the crate hosts the optimizing mid-end.  The work
//! IR is structured (straight-line statements, `if`, counted `for`), so
//! every pass is a recursive walk over `&[Stmt]` and a pure function of
//! the body: the abstract walk above ([`absint`]: rates, peek bounds, dead
//! arms), a folding walk ([`opt`]: constants, pruning, unrolling, and lint
//! `L0607`) and a backward walk ([`liveness`]: dead stores, for the
//! optimizer and lint `L0606`).  [`scope`] holds the name scoping they
//! share; [`opt`] is the semantics-preserving transform pipeline engines
//! run before bytecode lowering.

pub mod absint;
pub mod interval;
mod lint;
pub mod liveness;
pub mod opt;
pub mod scope;

pub use absint::{analyze_block, BodyAnalysis};
pub use interval::Interval;
pub use opt::{optimize_filter, OptStats};

use streamit_graph::{Filter, Stmt, StreamNode};

/// How severe a finding is: errors gate execution, warnings print.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    Error,
    Warning,
}

/// One static-analysis finding against a specific filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable code: `E06xx` for errors, `L06xx` for lints.
    pub code: &'static str,
    pub severity: Severity,
    /// Hierarchical path of the filter (matches flat-graph node names).
    pub path: String,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{kind}[{}] {}: {}", self.code, self.path, self.message)
    }
}

/// The full report for a stream program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// `true` when no findings at all were produced.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `true` when at least one hard (`E`-code) finding is present.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Hard findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Lint findings only.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
    }
}

fn finding(code: &'static str, path: &str, message: String) -> Finding {
    let severity = if code.starts_with('E') {
        Severity::Error
    } else {
        Severity::Warning
    };
    Finding {
        code,
        severity,
        path: path.to_string(),
        message,
    }
}

/// Check one analyzed body against declared rates.  `what` prefixes
/// messages for prework (`""` for work).
fn check_conformance(
    r: &BodyAnalysis,
    declared_peek: usize,
    declared_pop: usize,
    declared_push: usize,
    what: &str,
    path: &str,
    out: &mut Vec<Finding>,
) {
    let pop = declared_pop as i64;
    let push = declared_push as i64;
    let window = declared_peek.max(declared_pop) as i64;

    // Rate conformance (E0601).  With an exact result every interval
    // endpoint is realised by some path, so any non-singleton interval is
    // a definite violation of the static-rate contract; with a widened
    // result only a declared rate *outside* the interval is definite.
    if r.exact {
        if r.pops != Interval::constant(pop) {
            out.push(finding(
                "E0601",
                path,
                format!(
                    "{what}declares pop {declared_pop} but the body pops {} \
                     (every path must consume exactly the declared rate)",
                    r.pops
                ),
            ));
        }
        if r.pushes != Interval::constant(push) {
            out.push(finding(
                "E0601",
                path,
                format!(
                    "{what}declares push {declared_push} but the body pushes {} \
                     (every path must produce exactly the declared rate)",
                    r.pushes
                ),
            ));
        }
    } else {
        if !r.pops.contains(pop) {
            out.push(finding(
                "E0601",
                path,
                format!(
                    "{what}declares pop {declared_pop} but the body pops {} on every path",
                    r.pops
                ),
            ));
        }
        if !r.pushes.contains(push) {
            out.push(finding(
                "E0601",
                path,
                format!(
                    "{what}declares push {declared_push} but the body pushes {} on every path",
                    r.pushes
                ),
            ));
        }
        if r.pops.contains(pop) && r.pushes.contains(push) {
            out.push(finding(
                "L0605",
                path,
                format!(
                    "{what}rates are data-dependent (pop {}, push {}) and cannot be \
                     statically proven equal to the declared (pop {declared_pop}, \
                     push {declared_push}); the runtime rate check applies",
                    r.pops, r.pushes
                ),
            ));
        }
    }

    // Peek-bounds proof (E0602): the body's input requirement must fit
    // the declared window.  An infinite upper bound is over-approximation
    // (a tape-derived index), never a proof — only a finite exact bound
    // or a violated lower bound is definite.
    let definite_overrun =
        r.need.lo > window || (r.exact && r.need.hi > window && r.need.hi != Interval::POS_INF);
    if definite_overrun {
        out.push(finding(
            "E0602",
            path,
            format!(
                "{what}requires up to {} input items but declares a peek window of \
                 {window} (peek {declared_peek}, pop {declared_pop})",
                r.need
            ),
        ));
    } else if r.need.hi > window {
        out.push(finding(
            "L0605",
            path,
            format!(
                "{what}may require up to {} input items against a declared peek \
                 window of {window}; not statically provable either way",
                r.need
            ),
        ));
    }

    // Unprovably non-negative peek index (E0603).
    if let Some(np) = r.neg_peek {
        out.push(finding(
            "E0603",
            path,
            format!("{what}has a peek index not provably non-negative (index range {np})"),
        ));
    }

    // Over-declared window (L0604): reserving more lookahead than the
    // body can reach inflates every downstream buffer-size computation.
    if r.exact && declared_peek as i64 > r.need.hi.max(pop) {
        out.push(finding(
            "L0604",
            path,
            format!(
                "{what}declares peek {declared_peek} but can never inspect beyond \
                 {} item(s); the window over-reserves buffer space",
                r.need.hi.max(pop)
            ),
        ));
    }

    // Unreachable code found while walking this body (L0602).
    for d in &r.dead_code {
        out.push(finding(
            "L0602",
            path,
            format!("{what}unreachable code: {d}"),
        ));
    }
}

/// Rate conformance and the peek-bounds proof for `f`'s work and
/// prework: every hard finding (E0601–E0603) and the lints the same
/// walk yields (L0602, L0604, L0605), none of the others.  This is all
/// an engine's admission gate reads.
pub fn analyze_rates(f: &Filter, path: &str) -> Vec<Finding> {
    let mut out = Vec::new();

    let work = absint::analyze_body(f, &f.work);
    check_conformance(&work, f.peek, f.pop, f.push, "", path, &mut out);

    if let Some(pw) = &f.prework {
        let pre = absint::analyze_body(f, &pw.body);
        check_conformance(&pre, pw.peek, pw.pop, pw.push, "prework ", path, &mut out);
    }

    out
}

/// Analyze a single filter.  `path` is its hierarchical instance path
/// (used verbatim in findings; matches flat-graph node names).
pub fn analyze_filter(f: &Filter, path: &str) -> Vec<Finding> {
    let mut out = analyze_rates(f, path);

    for name in lint::unused_state_fields(f) {
        out.push(finding(
            "L0601",
            path,
            format!("state field `{name}` is never read or written"),
        ));
    }

    let mut hazards = lint::tape_in_branch_condition(&f.work);
    if let Some(pw) = &f.prework {
        hazards += lint::tape_in_branch_condition(&pw.body);
    }
    for _ in 0..hazards {
        out.push(finding(
            "L0603",
            path,
            "tape operation inside an `if` condition whose arms also touch the tape \
             (evaluation-order hazard)"
                .to_string(),
        ));
    }

    mid_end_lints(f, &f.work, "", path, &mut out);
    if let Some(pw) = &f.prework {
        mid_end_lints(f, &pw.body, "prework ", path, &mut out);
    }

    out
}

/// Lints backed by the mid-end's passes: dead stores (L0606, the
/// liveness walk), provably constant `if` conditions (L0607, the constant
/// folder), and loop-invariant peeks (L0608).
fn mid_end_lints(f: &Filter, block: &[Stmt], what: &str, path: &str, out: &mut Vec<Finding>) {
    use streamit_graph::Expr;

    for d in liveness::dead_stores(f, block) {
        let kind = if d.is_let { "local" } else { "variable" };
        out.push(finding(
            "L0606",
            path,
            format!("{what}value stored to {kind} `{}` is never read", d.name),
        ));
    }

    // A condition constant without any propagated facts (pure literal
    // arithmetic) is already reported as unreachable code (L0602) by the
    // abstract-interpretation walk; L0607 only adds conditions that
    // *become* constant through propagation.
    for truthy in opt::constant_conditions(f, block) {
        out.push(finding(
            "L0607",
            path,
            format!(
                "{what}`if` condition is always {}; the {} branch is dead",
                if truthy { "true" } else { "false" },
                if truthy { "else" } else { "then" },
            ),
        ));
    }

    // L0608 — loop-invariant peeks: a `peek` inside a loop whose index
    // does not depend on the loop variable, anything written in the
    // body, or the tape position (no pops in the body) reads the same
    // item every iteration and should be hoisted.
    streamit_graph::work::visit_block(block, &mut |s| {
        let Stmt::For { var, body, .. } = s else {
            return;
        };
        let mut has_pop = false;
        let mut written: std::collections::HashSet<&str> =
            std::collections::HashSet::from([var.as_str()]);
        streamit_graph::work::visit_block(body, &mut |b| {
            match b {
                Stmt::Assign { target, .. } => {
                    written.insert(target.name());
                }
                Stmt::For { var, .. } => {
                    written.insert(var.as_str());
                }
                _ => {}
            }
            b.visit_exprs(&mut |e| {
                e.visit(&mut |e| {
                    if matches!(e, Expr::Pop) {
                        has_pop = true;
                    }
                });
            });
        });
        if has_pop {
            return;
        }
        let mut invariant = false;
        for b in body {
            b.visit_exprs(&mut |e| {
                e.visit(&mut |e| {
                    if let Expr::Peek(idx) = e {
                        let mut depends = idx.touches_tape();
                        idx.visit(&mut |i| match i {
                            Expr::Var(n) | Expr::Index(n, _) if written.contains(n.as_str()) => {
                                depends = true;
                            }
                            _ => {}
                        });
                        if !depends {
                            invariant = true;
                        }
                    }
                });
            });
        }
        if invariant {
            out.push(finding(
                "L0608",
                path,
                format!(
                    "{what}`peek` index inside `for {var}` loop is invariant across \
                     iterations; hoist the read out of the loop"
                ),
            ));
        }
    });
}

/// Analyze every filter of a stream program, using the same hierarchical
/// path scheme as flattening and validation (`Main/child/...`).
pub fn analyze_stream(stream: &StreamNode) -> AnalysisReport {
    let mut findings = Vec::new();
    walk(stream, "", &mut findings);
    AnalysisReport { findings }
}

fn walk(stream: &StreamNode, prefix: &str, out: &mut Vec<Finding>) {
    let path = if prefix.is_empty() {
        stream.name().to_string()
    } else {
        format!("{prefix}/{}", stream.name())
    };
    match stream {
        StreamNode::Filter(f) => out.extend(analyze_filter(f, &path)),
        StreamNode::Pipeline(p) => {
            for c in &p.children {
                walk(c, &path, out);
            }
        }
        StreamNode::SplitJoin(s) => {
            for c in &s.children {
                walk(c, &path, out);
            }
        }
        StreamNode::FeedbackLoop(l) => {
            walk(&l.body, &path, out);
            walk(&l.loopback, &path, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::DataType;

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn conforming_filter_is_clean() {
        let f = FilterBuilder::new("avg", DataType::Float)
            .rates(3, 1, 1)
            .push((peek(0) + peek(1) + peek(2)) / lit(3.0))
            .pop_discard()
            .build();
        assert!(analyze_filter(&f, "avg").is_empty());
    }

    #[test]
    fn branch_pushing_fewer_is_e0601() {
        // Declares push 1, but the else arm pushes nothing.
        let f = FilterBuilder::new("liar", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| b.if_(pop(), |t| t.push(lit(1i64))))
            .build();
        let fs = analyze_filter(&f, "liar");
        assert!(codes(&fs).contains(&"E0601"), "got {fs:?}");
    }

    #[test]
    fn peek_beyond_window_is_e0602() {
        let f = FilterBuilder::new("reach", DataType::Int)
            .rates(2, 1, 1)
            .push(peek(5))
            .pop_discard()
            .build();
        let fs = analyze_filter(&f, "reach");
        assert!(codes(&fs).contains(&"E0602"), "got {fs:?}");
    }

    #[test]
    fn negative_peek_is_e0603() {
        let f = FilterBuilder::new("neg", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| b.let_("j", DataType::Int, pop()).push(peek(var("j"))))
            .build();
        let fs = analyze_filter(&f, "neg");
        assert!(codes(&fs).contains(&"E0603"), "got {fs:?}");
    }

    #[test]
    fn data_dependent_rates_warn_not_error() {
        // Trip count depends on tape data: conservatively accepted.
        let body = vec![Stmt::For {
            var: "i".into(),
            from: streamit_graph::Expr::IntLit(0),
            to: streamit_graph::Expr::Pop,
            body: vec![Stmt::Push(streamit_graph::Expr::IntLit(1))],
        }];
        let mut f = FilterBuilder::new("dyn", DataType::Int)
            .rates(1, 1, 1)
            .build();
        f.work = body;
        let fs = analyze_filter(&f, "dyn");
        assert!(
            !fs.iter().any(|f| f.severity == Severity::Error),
            "got {fs:?}"
        );
        assert!(codes(&fs).contains(&"L0605"), "got {fs:?}");
    }

    #[test]
    fn over_declared_window_is_l0604() {
        let f = FilterBuilder::new("wide", DataType::Int)
            .rates(16, 1, 1)
            .push(peek(1))
            .pop_discard()
            .build();
        let fs = analyze_filter(&f, "wide");
        assert_eq!(codes(&fs), vec!["L0604"]);
    }

    #[test]
    fn prework_checked_too() {
        let f = FilterBuilder::new("delay", DataType::Int)
            .rates(1, 1, 1)
            .push(pop())
            .prework(0, 0, 2, |b| b.push(lit(0i64)))
            .build();
        let fs = analyze_filter(&f, "delay");
        assert!(fs
            .iter()
            .any(|x| x.code == "E0601" && x.message.starts_with("prework")));
    }

    #[test]
    fn stream_walk_uses_hierarchical_paths() {
        let bad = FilterBuilder::new("liar", DataType::Int)
            .rates(1, 1, 2)
            .push(pop())
            .build_node();
        let p = pipeline("Main", vec![identity("ok", DataType::Int), bad]);
        let report = analyze_stream(&p);
        assert!(report.has_errors());
        assert_eq!(
            report.errors().next().map(|f| f.path.as_str()),
            Some("Main/liar")
        );
    }

    #[test]
    fn report_helpers() {
        let mut rep = AnalysisReport::default();
        assert!(rep.is_clean() && !rep.has_errors());
        rep.findings.push(finding("L0601", "p", "m".into()));
        assert!(!rep.is_clean() && !rep.has_errors());
        rep.findings.push(finding("E0601", "p", "m".into()));
        assert!(rep.has_errors());
        assert_eq!(rep.warnings().count(), 1);
        assert_eq!(rep.errors().count(), 1);
    }

    #[test]
    fn finding_display_shapes() {
        let e = finding("E0602", "Main/f", "too far".into());
        assert_eq!(e.to_string(), "error[E0602] Main/f: too far");
        let w = finding("L0601", "Main/f", "dead".into());
        assert_eq!(w.to_string(), "warning[L0601] Main/f: dead");
    }
}
