//! Compiling one program, and timing the compiler's phases.
//!
//! [`compile`] calls what a user calls (`Compiler::compile_source` /
//! `compile_stream`); every program the benchmark runs or lowers comes
//! from it.  [`time_phases`] makes the same calls the compiler makes
//! inside, one public function per phase, each in a span, and drops
//! what they return: that is where the per-layer compile times come
//! from.  `streambench check` fails if the phase spans stop adding up
//! to the time of the real compile, which is how a phase added to the
//! compiler and not to this file gets noticed.

use streamit::exec::plan::{LowerOptions, Op};
use streamit::exec::{CompiledGraph, ExecError};
use streamit::graph::{FlatGraph, StreamNode};
use streamit::linear::LinearMode;
use streamit::{CompiledProgram, Compiler, Options};

use crate::metrics::Report;
use crate::trace::{Span, Tracer};

/// Where a program comes from.
pub enum Source {
    /// Source text of the surface language; elaborates `Main`.
    Text(String),
    /// A builder-API application.
    Builder(Box<dyn Fn() -> StreamNode + Send + Sync>),
}

impl Source {
    pub fn builder(f: impl Fn() -> StreamNode + Send + Sync + 'static) -> Source {
        Source::Builder(Box::new(f))
    }

    pub fn kib(&self) -> f64 {
        match self {
            Source::Text(t) => t.len() as f64 / 1024.0,
            Source::Builder(_) => 0.0,
        }
    }
}

pub fn options(linear: Option<LinearMode>) -> Options {
    Options {
        linear,
        ..Options::default()
    }
}

/// Compile through the user-facing entry point.
pub fn compile(src: &Source, opts: Options) -> Result<CompiledProgram, String> {
    let c = Compiler::new(opts);
    match src {
        Source::Text(text) => c.compile_source(text, "Main"),
        Source::Builder(build) => c.compile_stream(build()),
    }
    .map_err(|e| e.to_string())
}

/// [`compile`] in a span (`core.compile`) of `tr`.
pub fn compile_traced(src: &Source, opts: Options, tr: &Tracer) -> Result<CompiledProgram, String> {
    tr.span("core.compile", || compile(src, opts))
}

/// The calls [`compile`] makes inside, phase by phase, each public call
/// in a span of `tr`.  Returns the flattened graph the phases end with.
pub fn time_phases(src: &Source, opts: Options, tr: &Tracer) -> Result<FlatGraph, String> {
    use streamit::{analysis, frontend, graph, linear, sdep};
    let stream = match src {
        Source::Text(text) => {
            let ast = tr
                .span("frontend.parse", || frontend::parse_program(text))
                .map_err(|e| e.to_string())?;
            tr.span("frontend.elaborate", || frontend::elaborate(&ast, "Main"))
                .map_err(|e| e.to_string())?
                .stream
        }
        Source::Builder(build) => tr.span("apps.build", build),
    };
    let errs = tr.span("graph.validate", || graph::validate(&stream));
    if !errs.is_empty() {
        return Err(format!("validation failed: {}", errs[0]));
    }
    tr.span("analysis.analyze", || analysis::analyze_stream(&stream));
    let stream = match opts.linear {
        Some(mode) => {
            tr.span("linear.optimize", || linear::optimize_stream(&stream, mode))
                .0
        }
        None => stream,
    };
    let flat = tr.span("graph.flatten", || FlatGraph::from_stream(&stream));
    tr.span("sdep.verify", || sdep::verify_graph(&flat));
    Ok(flat)
}

/// Lower for the compiled engine (span `exec.lower`).
pub fn lower(p: &CompiledProgram, tr: &Tracer) -> Result<CompiledGraph, ExecError> {
    tr.span("exec.lower", || p.compile_exec())
}

/// Lower with the mid-end optimizer off; against `exec.lower` this is
/// what the optimizer costs.  Declined programs give `None`.
pub fn lower_opt0(p: &CompiledProgram, tr: &Tracer) -> Option<CompiledGraph> {
    if !p.portals.is_empty() {
        return None;
    }
    tr.span("exec.lower_opt0", || {
        CompiledGraph::compile_with(
            &p.flat,
            p.stream.input_type(),
            LowerOptions { opt_level: 0 },
        )
    })
    .ok()
}

/// Plan for the two-worker parallel runtime (span `rt.plan`).
pub fn plan_parallel(
    p: &CompiledProgram,
    threads: usize,
    tr: &Tracer,
) -> Result<streamit::rt::ParallelGraph, ExecError> {
    tr.span("rt.plan", || p.compile_parallel(threads))
}

/// The per-layer metrics of the phases one compile-lower-plan pass is
/// made of, and the span each is read from.
const PHASE_METRICS: [(&str, &str); 10] = [
    ("apps.build_ms", "apps.build"),
    ("frontend.parse_ms", "frontend.parse"),
    ("frontend.elaborate_ms", "frontend.elaborate"),
    ("graph.validate_ms", "graph.validate"),
    ("graph.flatten_ms", "graph.flatten"),
    ("analysis.analyze_ms", "analysis.analyze"),
    ("linear.optimize_ms", "linear.optimize"),
    ("sdep.verify_ms", "sdep.verify"),
    ("exec.lower_ms", "exec.lower"),
    ("rt.plan_ms", "rt.plan"),
];

/// Report each phase's milliseconds, `ms` giving them by span name, and
/// the optimizer-off lowering beside them; returns the phases' sum.
pub fn report_phases(report: &mut Report, ms: impl Fn(&str) -> f64) -> f64 {
    report.set("exec.lower_opt0_ms", ms("exec.lower_opt0"));
    PHASE_METRICS
        .iter()
        .map(|(metric, span)| {
            report.set(metric, ms(span));
            ms(span)
        })
        .sum()
}

/// The per-layer compile metrics of one program: time its phases, lower
/// it at both optimisation levels and plan it for two workers, 25 times
/// over, and report each phase's median.  One compile of a single
/// program takes a few milliseconds, too little to time once.  Returns
/// the spans, for the trace file.
pub fn phase_metrics(src: &Source, opts: Options, workload: u32, report: &mut Report) -> Vec<Span> {
    const REPS: usize = 25;
    let tr = Tracer::on(workload, REPS * 16);
    for _ in 0..REPS {
        let (Ok(_), Ok(p)) = (time_phases(src, opts, &tr), compile_traced(src, opts, &tr)) else {
            break;
        };
        let _ = lower(&p, &tr);
        lower_opt0(&p, &tr);
        let _ = plan_parallel(&p, 2, &tr);
    }
    let spans = tr.spans();
    report_phases(report, |name| {
        let ns: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect();
        crate::stats::median(&ns) / 1e6
    });
    spans
}

/// `true` for the engines' "not in my subset" answer (E0701).
pub fn declined<T>(r: &Result<T, ExecError>) -> bool {
    matches!(r, Err(ExecError::Unsupported { .. }))
}

/// Exact counts read off a compiled graph's public plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCounts {
    /// Filter, splitter and joiner firings per steady iteration.
    pub firings: u64,
    /// Of those, work-function firings (bytecode or kernel entries).
    pub work_ops: u64,
    /// Of those, splitter/joiner firings (bulk moves, copies, sums).
    pub move_ops: u64,
    /// Proved capacity of all internal tapes, in KiB (8-byte items).
    pub tape_kib: f64,
    pub kernel_filters: u64,
}

impl PlanCounts {
    pub fn of(cg: &CompiledGraph) -> PlanCounts {
        let plan = cg.plan();
        let mut c = PlanCounts {
            firings: cg.firings_per_iteration(),
            kernel_filters: cg.kernel_filters() as u64,
            ..PlanCounts::default()
        };
        let steady = plan
            .pre_ops
            .iter()
            .chain(plan.branch_ops.iter().flatten())
            .chain(&plan.post_ops);
        for op in steady {
            match op {
                Op::Work { times, .. } => c.work_ops += u64::from(*times),
                other => c.move_ops += u64::from(other.times()),
            }
        }
        let items: u64 = plan.tapes.iter().flatten().map(|t| t.cap).sum();
        c.tape_kib = items as f64 * 8.0 / 1024.0;
        c
    }

    pub fn add(&mut self, o: PlanCounts) {
        self.firings += o.firings;
        self.work_ops += o.work_ops;
        self.move_ops += o.move_ops;
        self.tape_kib += o.tape_kib;
        self.kernel_filters += o.kernel_filters;
    }

    pub fn report(&self, r: &mut Report) {
        r.set("exec.firings_per_iter", self.firings as f64);
        r.set("exec.work_ops_per_iter", self.work_ops as f64);
        r.set("exec.move_ops_per_iter", self.move_ops as f64);
        r.set("exec.tape_kib", self.tape_kib);
        r.set("exec.kernel_filters", self.kernel_filters as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        float->float filter Avg(int N) {
            work peek N pop 1 push 1 {
                float s = 0.0;
                for (int i = 0; i < N; i++) s += peek(i);
                push(s / N);
                pop();
            }
        }
        float->float pipeline Main() { add Avg(4); add Avg(2); }
    "#;

    #[test]
    fn the_phases_end_with_the_graph_the_entry_point_builds() {
        let src = Source::Text(SRC.into());
        let tr = Tracer::on(0, 64);
        for linear in [None, Some(LinearMode::Frequency)] {
            let a = compile_traced(&src, options(linear), &tr).unwrap();
            let flat = time_phases(&src, options(linear), &tr).unwrap();
            assert_eq!(a.flat.nodes.len(), flat.nodes.len());
            assert_eq!(a.flat.edges.len(), flat.edges.len());
            lower(&a, &tr).unwrap();
        }
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        for want in [
            "core.compile",
            "frontend.parse",
            "frontend.elaborate",
            "graph.validate",
            "analysis.analyze",
            "linear.optimize",
            "graph.flatten",
            "sdep.verify",
            "exec.lower",
        ] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
    }

    #[test]
    fn plan_counts_add_up() {
        let p = compile(&Source::Text(SRC.into()), options(None)).unwrap();
        let c = PlanCounts::of(&p.compile_exec().unwrap());
        assert_eq!(c.firings, c.work_ops + c.move_ops);
        assert_eq!((c.work_ops, c.move_ops, c.kernel_filters), (2, 0, 0));
        assert!(c.tape_kib > 0.0);
    }
}
