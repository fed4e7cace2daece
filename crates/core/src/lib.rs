//! # StreamIt-rs
//!
//! A stream language and optimizing compiler for grid multicores — a
//! from-scratch Rust reproduction of the MIT StreamIt system described
//! in *"Language and Compiler Design for Streaming Applications"*.
//!
//! The workspace layers, bottom to top:
//!
//! | crate | contents |
//! |---|---|
//! | [`graph`] | hierarchical stream IR, work-function IR, flattening, validation, balance equations |
//! | [`frontend`] | the textual language: lexer, parser, elaborator |
//! | [`interp`] | reference interpreter (FIFO tapes, teleport portals) |
//! | [`exec`] | compiled steady-state engine: bytecode work functions, unboxed ring tapes, data-parallel split-joins |
//! | [`sdep`] | information-wavefront transfer functions, SDEP, teleport semantics, deadlock/overflow verification |
//! | [`linear`] | linear extraction, combination, frequency translation |
//! | [`sched`] | work estimation, fusion/fission, the parallelization strategies |
//! | [`rawsim`] | the 16-tile Raw-like machine model |
//! | [`apps`] | the benchmark suite |
//!
//! The [`Compiler`] type glues the layers into a single pipeline:
//!
//! ```
//! use streamit::{Compiler, Options};
//!
//! let source = r#"
//!     float->float filter Scale(float g) {
//!         work pop 1 push 1 { push(pop() * g); }
//!     }
//!     float->float pipeline Main() {
//!         add Scale(2.0);
//!         add Scale(0.5);
//!     }
//! "#;
//! let program = Compiler::new(Options::default())
//!     .compile_source(source, "Main")
//!     .expect("compiles");
//! let out = program.run(&[1.0, 2.0, 3.0], 3).expect("runs");
//! assert_eq!(out, vec![1.0, 2.0, 3.0]);
//! ```

mod diag;
pub use diag::{Diag, DiagCategory, Span};

pub use streamit_analysis as analysis;
pub use streamit_apps as apps;
pub use streamit_exec as exec;
pub use streamit_frontend as frontend;
pub use streamit_graph as graph;
pub use streamit_interp as interp;
pub use streamit_linear as linear;
pub use streamit_rawsim as rawsim;
pub use streamit_rt as rt;
pub use streamit_sched as sched;
pub use streamit_sdep as sdep;

use std::collections::HashMap;
use streamit_graph::{FlatGraph, StreamNode, Value};
use streamit_linear::{LinearMode, LinearReport};
use streamit_rawsim::{simulate, simulate_single_core, MachineConfig, SimResult};
use streamit_sched::{MappedProgram, Strategy, WorkGraph};
use streamit_sdep::VerifyReport;

/// Which execution engine runs a compiled program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The reference tree-walking interpreter (`streamit-interp`):
    /// handles every program, including teleport messaging, and serves
    /// as the semantics oracle.
    #[default]
    Reference,
    /// The compiled steady-state engine (`streamit-exec`): bytecode
    /// work functions, unboxed ring-buffer tapes, and data-parallel
    /// split-joins.  Rejects graphs outside its statically provable
    /// subset with an `E0701` diagnostic.
    Compiled,
    /// The multicore runtime (`streamit-rt`): fuses/fisses the graph,
    /// partitions it into software-pipelined stages, and runs one
    /// worker thread per stage over lock-free SPSC ring channels.
    /// `threads == 0` means "use all available cores".  Rejects the
    /// same graphs as the compiled engine (plus feedback loops) with
    /// an `E0701` diagnostic.
    Parallel {
        /// Worker-thread budget (0 = auto-detect available cores).
        threads: usize,
    },
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "reference" => Ok(Engine::Reference),
            "compiled" => Ok(Engine::Compiled),
            "parallel" => Ok(Engine::Parallel { threads: 0 }),
            other => Err(format!(
                "unknown engine `{other}` (expected `reference`, `compiled`, or `parallel`)"
            )),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Reference => write!(f, "reference"),
            Engine::Compiled => write!(f, "compiled"),
            Engine::Parallel { .. } => write!(f, "parallel"),
        }
    }
}

impl Engine {
    /// The next rung down the degradation ladder: parallel → compiled →
    /// reference → (none).  Each step trades throughput for a simpler
    /// engine with fewer failure modes; the reference interpreter is
    /// the floor (single-threaded, injection-free, the semantics
    /// oracle).
    pub fn degrade(self) -> Option<Engine> {
        match self {
            Engine::Parallel { .. } => Some(Engine::Compiled),
            Engine::Compiled => Some(Engine::Reference),
            Engine::Reference => None,
        }
    }
}

/// What `run_supervised` does when an engine faults at run time
/// (compile-time declines, `E0701`, always fall through to the next
/// engine — that is the long-standing CLI behaviour).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OnEngineFault {
    /// Report the fault as the run's error.
    Error,
    /// Retry the same engine (with backoff), then degrade to the next
    /// engine down the ladder; the reference interpreter is the floor.
    #[default]
    Fallback,
}

impl std::str::FromStr for OnEngineFault {
    type Err = String;

    fn from_str(s: &str) -> Result<OnEngineFault, String> {
        match s {
            "error" => Ok(OnEngineFault::Error),
            "fallback" => Ok(OnEngineFault::Fallback),
            other => Err(format!(
                "unknown fault policy `{other}` (expected `error` or `fallback`)"
            )),
        }
    }
}

/// Supervision settings for [`CompiledProgram::run_supervised`].
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Stall-watchdog deadline for the parallel engine (`None` = off).
    pub watchdog_ms: Option<u64>,
    /// Policy for runtime engine faults.
    pub on_fault: OnEngineFault,
    /// Chaos-harness fault injection (`None` in production).
    pub fault_plan: Option<exec::FaultPlan>,
    /// Same-engine retries before degrading (recoverable faults only).
    pub retries: u32,
    /// Base backoff between retries; doubles per attempt.
    pub backoff_ms: u64,
    /// Firing budget for the reference interpreter rung.
    pub budget: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            watchdog_ms: None,
            on_fault: OnEngineFault::default(),
            fault_plan: None,
            retries: 1,
            backoff_ms: 10,
            budget: interp::ExecLimits::default().max_firings,
        }
    }
}

/// One failed attempt in a supervised run: which engine, and what it
/// reported.
#[derive(Debug, Clone)]
pub struct EngineAttempt {
    pub engine: Engine,
    pub diag: Diag,
}

/// The result of a supervised run: the output, the engine that finally
/// produced it, and every failed attempt along the way.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub output: Vec<f64>,
    /// The engine that produced `output` (the requested engine unless
    /// the ladder degraded).
    pub engine: Engine,
    /// Failed attempts, in order (empty on a clean first run).
    pub attempts: Vec<EngineAttempt>,
}

/// How a supervised attempt's failure steers the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    /// Compile-time decline (`E0701`): degrade immediately, spend no
    /// retry budget — the graph will never run on this engine.
    Unsupported,
    /// A runtime engine fault (fault, worker panic, stall): transient
    /// or engine-specific, so retry and then degrade under
    /// [`OnEngineFault::Fallback`].
    Recoverable,
    /// A property of the input or the program (starvation, no steady
    /// output, a run too large to allocate, reference-interpreter
    /// errors): every engine would agree, so degrading cannot help.
    Fatal,
}

fn classify_exec(e: &exec::ExecError) -> FaultClass {
    match e {
        exec::ExecError::Unsupported { .. } => FaultClass::Unsupported,
        exec::ExecError::Fault { .. }
        | exec::ExecError::WorkerPanic { .. }
        | exec::ExecError::Stalled { .. } => FaultClass::Recoverable,
        exec::ExecError::Starved { .. }
        | exec::ExecError::NoSteadyOutput
        | exec::ExecError::TooLarge { .. } => FaultClass::Fatal,
    }
}

/// Compiler options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Run the linear optimizer (`--linearreplacement` /
    /// `--frequencyreplacement`).
    pub linear: Option<LinearMode>,
    /// Reject programs whose verification reports deadlock/overflow.
    pub strict_verify: bool,
    /// Work-IR optimization level for the compiled/parallel engines:
    /// `0` lowers work functions verbatim, `1` (default) runs the
    /// analysis mid-end (constant folding, branch pruning, dead-store
    /// elimination, copy propagation, loop unrolling).  The reference
    /// interpreter always executes the unoptimized IR.
    pub opt_level: u8,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            linear: None,
            strict_verify: false,
            opt_level: 1,
        }
    }
}

/// Compilation errors.
#[derive(Debug)]
pub enum CompileError {
    Frontend(streamit_frontend::FrontendError),
    Validation(Vec<streamit_graph::ValidationError>),
    Verification(VerifyReport),
    Schedule(streamit_graph::SteadyError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "{e}"),
            CompileError::Validation(errs) => {
                writeln!(f, "validation failed:")?;
                for e in errs {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            CompileError::Verification(r) => {
                writeln!(f, "verification failed:")?;
                for d in r.deadlocks.iter().chain(&r.overflows) {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            CompileError::Schedule(e) => write!(f, "scheduling failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The StreamIt-rs compiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Compiler {
    pub options: Options,
}

impl Compiler {
    /// Create a compiler with options.
    pub fn new(options: Options) -> Compiler {
        Compiler { options }
    }

    /// Compile textual source, elaborating `main`.
    pub fn compile_source(
        &self,
        source: &str,
        main: &str,
    ) -> Result<CompiledProgram, CompileError> {
        let out = streamit_frontend::compile(source, main).map_err(CompileError::Frontend)?;
        self.finish(out.stream, out.portals, out.latencies, out.work_spans)
    }

    /// Compile an already-constructed stream graph (builder API).
    pub fn compile_stream(&self, stream: StreamNode) -> Result<CompiledProgram, CompileError> {
        let errs = streamit_graph::validate(&stream);
        if !errs.is_empty() {
            return Err(CompileError::Validation(errs));
        }
        self.finish(stream, Vec::new(), Vec::new(), HashMap::new())
    }

    fn finish(
        &self,
        stream: StreamNode,
        portals: Vec<streamit_frontend::PortalRegistration>,
        latencies: Vec<streamit_frontend::LatencyDirective>,
        work_spans: HashMap<String, streamit_frontend::SourcePos>,
    ) -> Result<CompiledProgram, CompileError> {
        // Static work-function analysis runs on the graph the user wrote
        // (before linear optimization rewrites filters) so findings carry
        // user-facing names and spans.  It never fails the compile here:
        // callers decide whether hard findings gate (see `streamitc`).
        let analysis = streamit_analysis::analyze_stream(&stream);
        let (stream, linear_report) = match self.options.linear {
            Some(mode) => {
                let (s, r) = streamit_linear::optimize_stream(&stream, mode);
                (s, Some(r))
            }
            None => (stream, None),
        };
        let flat = FlatGraph::from_stream(&stream);
        let verify = streamit_sdep::verify_graph(&flat);
        if self.options.strict_verify && !verify.is_ok() {
            return Err(CompileError::Verification(verify));
        }
        Ok(CompiledProgram {
            stream,
            flat,
            verify,
            analysis,
            linear_report,
            portals,
            latencies,
            work_spans,
            opt_level: self.options.opt_level,
            lowering: exec::LoweringCache::default(),
        })
    }
}

/// A compiled program: the (possibly optimized) graph plus analyses.
pub struct CompiledProgram {
    /// The final hierarchical graph.
    pub stream: StreamNode,
    /// Its flattened form.
    pub flat: FlatGraph,
    /// Deadlock/overflow verification.
    pub verify: VerifyReport,
    /// Static work-function analysis (rate conformance, peek bounds,
    /// lints), computed on the pre-optimization graph.
    pub analysis: streamit_analysis::AnalysisReport,
    /// What the linear optimizer did, when enabled.
    pub linear_report: Option<LinearReport>,
    /// Portal registrations from the frontend (`register` statements).
    pub portals: Vec<streamit_frontend::PortalRegistration>,
    /// `max_latency` directives from the frontend.
    pub latencies: Vec<streamit_frontend::LatencyDirective>,
    /// Source span of each filter's `work` declaration by instance path
    /// (empty for builder-API programs).
    pub work_spans: HashMap<String, streamit_frontend::SourcePos>,
    /// Work-IR optimization level used when lowering for the
    /// compiled/parallel engines (see [`Options::opt_level`]).
    pub opt_level: u8,
    /// Every filter body lowered for this program so far, shared by
    /// [`CompiledProgram::compile_exec`], both attempts of
    /// [`CompiledProgram::compile_parallel`] and every rung of
    /// [`CompiledProgram::run_supervised`]: whichever lowers a body first
    /// lowers it for all.
    lowering: exec::LoweringCache,
}

impl CompiledProgram {
    /// Execute the program on `input`, returning `n` outputs, with the
    /// default firing budget.  Portals from the source are registered
    /// automatically; messages use the constraint-checked teleport
    /// executor.
    pub fn run(&self, input: &[f64], n: usize) -> Result<Vec<f64>, interp::RuntimeError> {
        self.run_reference(input, n, interp::ExecLimits::default().max_firings)
    }

    /// The reference rung behind [`CompiledProgram::run`] and
    /// `run_supervised(Engine::Reference, ..)`: a divergent or
    /// rate-starved execution terminates with
    /// [`interp::RuntimeError::BudgetExhausted`] (or `Starved`) after
    /// `max_firings` ([`SupervisorConfig::budget`]) instead of spinning.
    fn run_reference(
        &self,
        input: &[f64],
        n: usize,
        max_firings: u64,
    ) -> Result<Vec<f64>, interp::RuntimeError> {
        let mut ex = streamit_sdep::ConstrainedExecutor::new(&self.flat);
        for reg in &self.portals {
            for node in resolve_portal_path(&self.flat, &reg.path) {
                ex.register_portal(&reg.portal, node);
            }
        }
        ex.derive_constraints();
        for l in &self.latencies {
            if let (Some(a), Some(b)) = (
                resolve_path_filter(&self.flat, &l.a_path),
                resolve_path_filter(&self.flat, &l.b_path),
            ) {
                ex.add_latency(streamit_sdep::LatencyConstraint { a, b, n: l.n });
            }
        }
        let in_ty = self.stream.input_type();
        ex.machine().feed(input.iter().map(|&v| match in_ty {
            Some(streamit_graph::DataType::Int) => Value::Int(v as i64),
            _ => Value::Float(v),
        }));
        ex.run_until_output(n, max_firings)?;
        Ok(ex
            .machine()
            .take_output()
            .iter()
            .map(|v| v.as_f64())
            .collect())
    }

    /// Compile the flat graph for the steady-state execution engine.
    /// Fails with [`exec::ExecError::Unsupported`] when the graph is
    /// outside the engine's statically provable subset — teleport
    /// portals, unanalyzable work functions, multiple external I/O
    /// sites, under-primed feedback loops.
    pub fn compile_exec(&self) -> Result<exec::CompiledGraph, exec::ExecError> {
        if !self.portals.is_empty() {
            return Err(exec::ExecError::Unsupported {
                reason: "teleport portals require the reference interpreter".into(),
            });
        }
        exec::CompiledGraph::compile_cached(
            &self.flat,
            self.stream.input_type(),
            exec::plan::LowerOptions {
                opt_level: self.opt_level,
            },
            &self.lowering,
        )
    }

    /// The filter bodies this program's engines have lowered so far
    /// (see [`exec::LoweringCache`]).
    pub fn lowering_cache(&self) -> &exec::LoweringCache {
        &self.lowering
    }

    /// Open an incremental [`exec::Session`] over this program: a
    /// reentrant run that accepts pushed input and yields available
    /// output steady-iteration-at-a-time through bounded staging
    /// buffers, without running to completion.  This is the API the
    /// `streamd` daemon serves instances through; `cfg` sizes the
    /// staging rings (clamped up to the smallest feasible windows).
    /// Fails like [`CompiledProgram::compile_exec`] on graphs outside
    /// the compiled engine's subset, plus
    /// [`exec::ExecError::NoSteadyOutput`] when the steady state emits
    /// nothing (a stream served incrementally must produce a stream).
    pub fn open_session(
        &self,
        cfg: &exec::SessionConfig,
    ) -> Result<exec::Session, exec::ExecError> {
        let cg = std::sync::Arc::new(self.compile_exec()?);
        cg.open_session(cfg)
    }

    /// Compile the flat graph for the multicore runtime with a
    /// `threads`-worker budget (`0` = auto-detect).  Applies the
    /// fission transform, partitions the graph into pipeline stages,
    /// and proves the staged schedule with the same count simulation
    /// the compiled engine uses.  Fails with
    /// [`exec::ExecError::Unsupported`] on graphs the runtime cannot
    /// stage (feedback loops, teleport portals, unanalyzable work).
    pub fn compile_parallel(&self, threads: usize) -> Result<rt::ParallelGraph, exec::ExecError> {
        if !self.portals.is_empty() {
            return Err(exec::ExecError::Unsupported {
                reason: "teleport portals require the reference interpreter".into(),
            });
        }
        rt::ParallelGraph::compile_cached(
            &self.flat,
            self.stream.input_type(),
            threads,
            rt::LowerOptions {
                opt_level: self.opt_level,
            },
            &self.lowering,
        )
    }

    /// Run the compiled engine with the per-filter profiler enabled and
    /// return `n` outputs plus the measured [`exec::ProfileReport`].
    /// `sample_period` 1 times every steady round, `p` one in `p`.
    /// The output stream is bit-identical to an unprofiled run.
    pub fn profile_run(
        &self,
        input: &[f64],
        n: usize,
        sample_period: u32,
    ) -> Result<(Vec<f64>, exec::ProfileReport), Diag> {
        let cg = self.compile_exec()?;
        let k = cg.plan().stats.iterations_for(n as u64)?;
        let (mut out, prof) = cg.run(input, k, None, Some(sample_period))?;
        out.truncate(n);
        Ok((out, prof))
    }

    /// One supervised attempt on one engine.
    fn run_engine_once(
        &self,
        engine: Engine,
        input: &[f64],
        n: usize,
        cfg: &SupervisorConfig,
    ) -> Result<Vec<f64>, (Diag, FaultClass)> {
        let unsupported = |e: exec::ExecError| (Diag::from(e), FaultClass::Unsupported);
        // The fast engines' configured runs count steady iterations:
        // enough of them for `n` outputs, then the first `n`.
        let run = match engine {
            Engine::Reference => {
                return self
                    .run_reference(input, n, cfg.budget)
                    .map_err(|e| (Diag::from(e), FaultClass::Fatal))
            }
            Engine::Compiled => {
                let cg = self.compile_exec().map_err(unsupported)?;
                let k = cg.plan().stats.iterations_for(n as u64);
                k.and_then(|k| Ok(cg.run(input, k, cfg.fault_plan, None)?.0))
            }
            Engine::Parallel { threads } => {
                let pg = self.compile_parallel(threads).map_err(unsupported)?;
                let rc = rt::RunConfig {
                    watchdog: cfg.watchdog_ms.map(std::time::Duration::from_millis),
                    fault: cfg.fault_plan,
                };
                let k = pg.plan().stats.iterations_for(n as u64);
                k.and_then(|k| pg.run(input, k, &rc))
            }
        };
        let mut out = run.map_err(|e| {
            let class = classify_exec(&e);
            (Diag::from(e), class)
        })?;
        out.truncate(n);
        Ok(out)
    }

    /// Execute on `engine` under supervision: the parallel rung gets
    /// the stall watchdog, runtime faults are classified, and — under
    /// [`OnEngineFault::Fallback`] — a recoverable fault retries the
    /// same engine (exponential backoff) and then degrades down the
    /// ladder (parallel → compiled → reference).  Compile-time declines
    /// (`E0701`) always degrade immediately without spending retry
    /// budget.  Fatal faults (starvation, budget exhaustion — input
    /// properties every engine agrees on) return the diagnostic
    /// regardless of policy.
    ///
    /// All rungs see the same `input`, and every engine computes the
    /// same deterministic Kahn stream, so a degraded run's output is
    /// bit-identical to what the requested engine would have produced.
    pub fn run_supervised(
        &self,
        engine: Engine,
        input: &[f64],
        n: usize,
        cfg: &SupervisorConfig,
    ) -> Result<RunOutcome, Diag> {
        let mut attempts: Vec<EngineAttempt> = Vec::new();
        let mut rung = engine;
        loop {
            let mut retry = 0u32;
            loop {
                match self.run_engine_once(rung, input, n, cfg) {
                    Ok(output) => {
                        return Ok(RunOutcome {
                            output,
                            engine: rung,
                            attempts,
                        })
                    }
                    Err((diag, class)) => {
                        attempts.push(EngineAttempt {
                            engine: rung,
                            diag: diag.clone(),
                        });
                        match class {
                            FaultClass::Fatal => return Err(diag),
                            FaultClass::Unsupported => match rung.degrade() {
                                Some(next) => {
                                    rung = next;
                                    break;
                                }
                                None => return Err(diag),
                            },
                            FaultClass::Recoverable => {
                                if cfg.on_fault == OnEngineFault::Error {
                                    return Err(diag);
                                }
                                if retry < cfg.retries {
                                    std::thread::sleep(std::time::Duration::from_millis(
                                        cfg.backoff_ms << retry,
                                    ));
                                    retry += 1;
                                    continue;
                                }
                                match rung.degrade() {
                                    Some(next) => {
                                        rung = next;
                                        break;
                                    }
                                    None => return Err(diag),
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Hard static-analysis findings as typed diagnostics (exit code 7),
    /// each carrying the source span of the offending filter's `work`
    /// declaration when the program came from text.
    pub fn analysis_diags(&self) -> Vec<Diag> {
        self.analysis
            .errors()
            .map(|f| {
                let span = self.work_spans.get(&f.path).map(|&p| p.into());
                Diag::from_finding(f, span)
            })
            .collect()
    }

    /// The benchmark characteristics row of this program.
    pub fn characterize(&self, name: &str) -> Result<sched::BenchCharacteristics, CompileError> {
        streamit_sched::characterize(name, &self.flat).map_err(CompileError::Schedule)
    }

    /// Build the coarse work graph.
    pub fn work_graph(&self) -> Result<WorkGraph, CompileError> {
        WorkGraph::from_flat(&self.flat).map_err(CompileError::Schedule)
    }

    /// Map with a given parallelization strategy.
    pub fn map(&self, strategy: Strategy, n_tiles: usize) -> Result<MappedProgram, CompileError> {
        let wg = self.work_graph()?;
        Ok(map_strategy(&wg, strategy, n_tiles))
    }

    /// Simulate every strategy on the given machine, returning
    /// `(single-core baseline, per-strategy results)`.
    pub fn evaluate(
        &self,
        cfg: &MachineConfig,
    ) -> Result<(SimResult, Vec<(Strategy, SimResult)>), CompileError> {
        let wg = self.work_graph()?;
        Ok(evaluate_strategies(&wg, cfg))
    }
}

/// Resolve a portal registration path to flat-graph receiver nodes:
/// filters under the path that declare handlers.
pub fn resolve_portal_path(flat: &FlatGraph, path: &str) -> Vec<streamit_graph::NodeId> {
    flat.nodes
        .iter()
        .filter(|n| {
            (n.name == path || n.name.starts_with(&format!("{path}/")))
                && n.as_filter()
                    .map(|f| !f.handlers.is_empty())
                    .unwrap_or(false)
        })
        .map(|n| n.id)
        .collect()
}

/// Resolve a hierarchical instance path to its first filter node.
pub fn resolve_path_filter(flat: &FlatGraph, path: &str) -> Option<streamit_graph::NodeId> {
    flat.nodes
        .iter()
        .find(|n| {
            (n.name == path || n.name.starts_with(&format!("{path}/"))) && n.as_filter().is_some()
        })
        .map(|n| n.id)
}

/// Apply one strategy to a work graph.
pub fn map_strategy(wg: &WorkGraph, strategy: Strategy, n_tiles: usize) -> MappedProgram {
    match strategy {
        Strategy::Task => streamit_sched::task_parallel_partition(wg, n_tiles),
        Strategy::FineGrainedData => streamit_sched::fine_grained_partition(wg, n_tiles),
        Strategy::TaskData => streamit_sched::data_parallel_partition(wg, n_tiles),
        Strategy::SoftwarePipeline => streamit_sched::software_pipeline(wg, n_tiles),
        Strategy::TaskDataSwp => streamit_sched::combined_partition(wg, n_tiles),
        Strategy::SpaceMultiplex => streamit_sched::space_multiplex(wg, n_tiles),
    }
}

/// All evaluation strategies, in presentation order.
pub const ALL_STRATEGIES: [Strategy; 6] = [
    Strategy::Task,
    Strategy::FineGrainedData,
    Strategy::TaskData,
    Strategy::SoftwarePipeline,
    Strategy::TaskDataSwp,
    Strategy::SpaceMultiplex,
];

/// Simulate the single-core baseline and every strategy.
pub fn evaluate_strategies(
    wg: &WorkGraph,
    cfg: &MachineConfig,
) -> (SimResult, Vec<(Strategy, SimResult)>) {
    let base = simulate_single_core(wg, cfg);
    let results = ALL_STRATEGIES
        .iter()
        .map(|&s| {
            let mp = map_strategy(wg, s, cfg.n_tiles());
            (s, simulate(&mp, cfg))
        })
        .collect();
    (base, results)
}

/// Geometric mean helper used by the evaluation tables.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = r#"
        float->float filter MovingAvg(int N) {
            work peek N pop 1 push 1 {
                float s = 0.0;
                for (int i = 0; i < N; i++) s += peek(i);
                push(s / N);
                pop();
            }
        }
        float->float pipeline Main() {
            add MovingAvg(4);
            add MovingAvg(4);
        }
    "#;

    #[test]
    fn source_to_execution() {
        let p = Compiler::default().compile_source(SOURCE, "Main").unwrap();
        assert!(p.verify.is_ok());
        let out = p.run(&[1.0; 16], 4).unwrap();
        for v in out {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_option_collapses() {
        let opts = Options {
            linear: Some(LinearMode::Replacement),
            ..Options::default()
        };
        let p = Compiler::new(opts).compile_source(SOURCE, "Main").unwrap();
        let r = p.linear_report.as_ref().unwrap();
        assert_eq!(r.extracted, 2);
        assert_eq!(r.collapsed_pipelines, 1);
        assert_eq!(p.stream.filter_count(), 1);
        let out = p.run(&[1.0; 16], 4).unwrap();
        for v in out {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn evaluate_produces_all_strategies() {
        let p = Compiler::default()
            .compile_stream(apps::fmradio::fmradio_with_io(4, 16))
            .unwrap();
        let cfg = MachineConfig::default();
        let (base, results) = p.evaluate(&cfg).unwrap();
        assert_eq!(results.len(), 6);
        assert!(base.cycles_per_steady > 0);
        for (s, r) in &results {
            assert!(
                r.cycles_per_steady > 0,
                "strategy {s:?} produced zero cycles"
            );
        }
    }

    #[test]
    fn strict_verify_rejects_underprimed_loop() {
        use streamit_graph::builder::*;
        use streamit_graph::DataType;
        let body = FilterBuilder::new("adder", DataType::Int)
            .rates(2, 1, 1)
            .push(peek(0) + peek(1))
            .pop_discard()
            .build_node();
        let fl = feedback_loop(
            "fib",
            streamit_graph::Joiner::RoundRobin(vec![0, 1]),
            body,
            streamit_graph::Splitter::Duplicate,
            identity("lb", DataType::Int),
            1,
            |_| Value::Int(0),
        );
        let c = Compiler::new(Options {
            strict_verify: true,
            ..Options::default()
        });
        assert!(matches!(
            c.compile_stream(fl),
            Err(CompileError::Verification(_))
        ));
    }

    #[test]
    fn max_latency_from_source_bounds_skew() {
        // MAX_LATENCY(a, b, 4): the upstream scaler may run at most 4
        // invocations ahead of the sink's wavefront; execution still
        // completes and computes the right stream.
        let src = r#"
            float->float filter Scale() { work pop 1 push 1 { push(pop() * 2.0); } }
            float->float filter Sink() { work pop 1 push 1 { push(pop()); } }
            float->float pipeline Main() {
                add Scale() as a;
                add Sink() as b;
                max_latency a b 4;
            }
        "#;
        let p = Compiler::default().compile_source(src, "Main").unwrap();
        assert_eq!(p.latencies.len(), 1);
        let out = p.run(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 6).unwrap();
        assert_eq!(out, vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn supervised_run_degrades_to_bit_identical_output_on_injected_panic() {
        let p = Compiler::default().compile_source(SOURCE, "Main").unwrap();
        let input: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin()).collect();
        let reference = p.run(&input, 8).unwrap();
        let cfg = SupervisorConfig {
            fault_plan: Some("panic@0:1".parse().unwrap()),
            backoff_ms: 1,
            ..SupervisorConfig::default()
        };
        let out = p
            .run_supervised(Engine::Parallel { threads: 2 }, &input, 8, &cfg)
            .expect("the ladder must land on the reference engine");
        assert_eq!(out.engine, Engine::Reference);
        assert!(
            out.attempts.iter().all(|a| a.diag.code == "E0705"),
            "attempts: {:?}",
            out.attempts
        );
        assert!(
            out.attempts.len() >= 2,
            "both compiled-family rungs should have failed: {:?}",
            out.attempts
        );
        let ob: Vec<u64> = out.output.iter().map(|v| v.to_bits()).collect();
        let rb: Vec<u64> = reference.iter().take(8).map(|v| v.to_bits()).collect();
        assert_eq!(ob, rb, "degraded output must stay bit-identical");
    }

    #[test]
    fn supervised_run_error_policy_surfaces_the_fault() {
        let p = Compiler::default().compile_source(SOURCE, "Main").unwrap();
        let input: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin()).collect();
        let cfg = SupervisorConfig {
            fault_plan: Some("panic@0:1".parse().unwrap()),
            on_fault: OnEngineFault::Error,
            ..SupervisorConfig::default()
        };
        let err = p
            .run_supervised(Engine::Parallel { threads: 2 }, &input, 8, &cfg)
            .expect_err("error policy must surface the panic");
        assert_eq!(err.code, "E0705");
        assert_eq!(err.exit_code(), 5);
        assert!(err.message.contains("injected fault"), "{err}");
    }

    #[test]
    fn supervised_run_does_not_degrade_on_fatal_faults() {
        // Starvation is a property of the input, not the engine: the
        // ladder must report it instead of burning retries.
        let p = Compiler::default().compile_source(SOURCE, "Main").unwrap();
        let err = p
            .run_supervised(Engine::Compiled, &[], 8, &SupervisorConfig::default())
            .expect_err("no input must starve");
        assert_eq!(err.code, "E0703");
    }

    #[test]
    fn fault_policy_parses() {
        assert_eq!("error".parse::<OnEngineFault>(), Ok(OnEngineFault::Error));
        assert_eq!(
            "fallback".parse::<OnEngineFault>(),
            Ok(OnEngineFault::Fallback)
        );
        assert!("panic".parse::<OnEngineFault>().is_err());
        assert_eq!(
            Engine::Parallel { threads: 2 }.degrade(),
            Some(Engine::Compiled)
        );
        assert_eq!(Engine::Compiled.degrade(), Some(Engine::Reference));
        assert_eq!(Engine::Reference.degrade(), None);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
    }
}
