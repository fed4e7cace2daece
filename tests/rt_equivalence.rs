//! Differential tests for the multicore runtime: on every graph the
//! parallel engine accepts, its output must be *bit-identical* to both
//! the reference interpreter and the serial compiled engine — at every
//! thread count, because fission and software pipelining are semantics
//! -preserving transforms of the same deterministic Kahn stream.
//! Graphs it declines must fail with a clear `Unsupported` reason.

use std::time::Duration;

use streamit::exec::{CompiledGraph, ExecError};
use streamit::rt::RunConfig;
use streamit::{apps, CompiledProgram};

#[path = "support/corpus.rs"]
mod corpus;
use corpus::{compile, varied_input};

#[path = "support/irgen.rs"]
mod irgen;

#[path = "support/tolerance.rs"]
mod tolerance;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Compare the parallel engine at every thread count against a
/// reference output stream, bit-for-bit, and against the compiled
/// engine `cg` either side of one batch of iterations and past two.
fn compare_parallel(
    name: &str,
    p: &CompiledProgram,
    cg: &CompiledGraph,
    reference: &[f64],
    n: usize,
) {
    for threads in THREAD_COUNTS {
        let pg = match p.compile_parallel(threads) {
            Ok(pg) => pg,
            Err(ExecError::Unsupported { reason }) => {
                // Only feedback loops shrink the subset; anything the
                // compiled engine runs is loop-free here, so a decline
                // is a planner bug unless it names a real limit.
                assert!(!reason.is_empty(), "{name}: empty parallel decline reason");
                continue;
            }
            Err(e) => panic!("{name}: unexpected parallel compile error: {e}"),
        };
        // The fissed graph's steady state may differ in size; size the
        // input for however many parallel iterations cover `n`.
        let kp = if n as u64 <= pg.init_outputs() {
            0
        } else {
            (n as u64 - pg.init_outputs()).div_ceil(pg.outputs_per_iteration().max(1))
        };
        let pin = varied_input(pg.required_input(kp) as usize);
        let parallel = pg
            .run_collect(&pin, n)
            .unwrap_or_else(|e| panic!("{name}: parallel run ({threads} threads) failed: {e}"));
        tolerance::assert_streams_match(
            &format!(
                "{name}: parallel@{threads} vs reference ({} stages, {} fissed regions)",
                pg.stages(),
                pg.fission_report().len()
            ),
            tolerance::Tolerance::Bit,
            &parallel,
            reference,
        );
        // A bare run this short is over inside the inline budget, its
        // stages taking turns on this thread; a supervised run gets its
        // workers from the first iteration, so this is the comparison
        // that has one thread per stage.
        let supervised = RunConfig {
            watchdog: Some(Duration::from_secs(120)),
            ..RunConfig::default()
        };
        let mut threaded = pg.run(&pin, kp, &supervised).unwrap_or_else(|e| {
            panic!("{name}: supervised parallel run ({threads} threads) failed: {e}")
        });
        threaded.truncate(n);
        tolerance::assert_streams_match(
            &format!("{name}: parallel@{threads} (one worker per stage) vs reference"),
            tolerance::Tolerance::Bit,
            &threaded,
            reference,
        );
        // Stage rounds at the plan's batch stride `b`: runs of `b` - 1
        // iterations take none, `2b + 3` take two and three unit rounds.
        let b = pg.plan().batch.as_ref().map_or(1, |b| u64::from(b.k));
        for k in [b - 1, b, b + 1, 2 * b + 3] {
            let len = pg.init_outputs() + k * pg.outputs_per_iteration();
            let kc = cg.plan().stats.iterations_for(len).expect("emits");
            let input = varied_input(pg.required_input(k).max(cg.required_input(kc)) as usize);
            let want = cg
                .run_collect(&input, len as usize)
                .unwrap_or_else(|e| panic!("{name}: compiled run of {len} items failed: {e}"));
            for (what, cfg) in [("bare", RunConfig::default()), ("supervised", supervised)] {
                let got = pg.run(&input, k, &cfg).unwrap_or_else(|e| {
                    panic!("{name}: {what} run of {k} iterations at {threads} threads failed: {e}")
                });
                tolerance::assert_streams_match(
                    &format!("{name}: parallel@{threads}, {what}, {k} iterations vs compiled"),
                    tolerance::Tolerance::Bit,
                    &got,
                    &want,
                );
            }
        }
    }
}

/// Run the reference interpreter, the serial compiled engine, and the
/// parallel engine at 1/2/4 threads and require the first `n` outputs
/// to be bit-identical everywhere.  Returns the
/// decline reason when the compiled engine rejects the graph (the
/// parallel engine accepts a subset of the compiled engine's graphs,
/// so it must then decline too).
fn differential(name: &str, p: &CompiledProgram, n: usize) -> Option<String> {
    let cg = match p.compile_exec() {
        Ok(cg) => cg,
        Err(ExecError::Unsupported { reason }) => {
            assert!(!reason.is_empty(), "{name}: empty decline reason");
            // The parallel engine cuts the compiled engine's plan, so it
            // declines for the compiled engine's reason (the back-edge
            // decline is its own only for graphs the compiled engine runs).
            for threads in THREAD_COUNTS {
                match p.compile_parallel(threads) {
                    Err(ExecError::Unsupported { reason: why }) => {
                        assert_eq!(why, reason, "{name}: parallel decline reason")
                    }
                    Ok(_) => panic!(
                        "{name}: parallel engine accepted a graph the compiled engine declines"
                    ),
                    Err(e) => panic!("{name}: unexpected parallel compile error: {e}"),
                }
            }
            return Some(reason);
        }
        Err(e) => panic!("{name}: compile_exec failed with non-Unsupported error: {e}"),
    };

    let k = if n as u64 <= cg.init_outputs() {
        0
    } else {
        (n as u64 - cg.init_outputs()).div_ceil(cg.outputs_per_iteration().max(1))
    };
    let input = varied_input(cg.required_input(k) as usize);
    let compiled = cg
        .run_collect(&input, n)
        .unwrap_or_else(|e| panic!("{name}: compiled run failed: {e}"));
    let mut reference = p
        .run(&input, n)
        .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
    reference.truncate(n);
    tolerance::assert_streams_match(
        &format!("{name}: compiled vs reference"),
        tolerance::Tolerance::Bit,
        &compiled,
        &reference,
    );

    compare_parallel(name, p, &cg, &reference, n);
    None
}

/// All fifteen benchmark graphs, each run differentially across the
/// three engines and three thread counts.  Apps outside the compiled
/// subset are listed with their reason; the four throughput-benchmark
/// apps must be accepted by every engine.
#[test]
fn apps_run_bit_identical_on_all_engines_and_thread_counts() {
    let mut declined = Vec::new();
    let mut compared = 0;
    for app in apps::corpus() {
        let name = app.name;
        let must_support = apps::THROUGHPUT_APPS.contains(&name);
        let p = compile(name, app.graph());
        if must_support {
            for threads in THREAD_COUNTS {
                p.compile_parallel(threads).unwrap_or_else(|e| {
                    panic!("{name} must run on the parallel engine at {threads} threads: {e}")
                });
            }
        }
        let Some(reason) = differential(name, &p, app.prefix) else {
            compared += 1;
            continue;
        };
        assert!(
            !must_support,
            "{name} must run on the compiled engine, but it declined: {reason}"
        );
        declined.push((name, reason));
    }
    assert_eq!(compared + declined.len(), apps::corpus().len());
    eprintln!(
        "compiled/parallel engines declined {} of {} apps: {declined:#?}",
        declined.len(),
        apps::corpus().len()
    );
    assert!(
        declined.len() <= 7,
        "engines declined too many apps: {declined:#?}"
    );
}

// ---- generator-based differential testing ------------------------------
//
// The random work-function IR generator produces bodies with branches,
// loops, peeks and local variables.  Whenever the interval analysis
// proves exact rates, the body becomes a legal filter; we embed it in a
// pipeline behind a heavy stateless (fission-eligible) stage so the
// transform layer is exercised, and the parallel engine must then
// either decline or agree with the reference interpreter bit-for-bit.

mod generated {
    use std::collections::HashMap;

    use streamit::analysis::analyze_block;
    use streamit::exec::ExecError;
    use streamit::graph::builder::{lit, pipeline, pop, FilterBuilder};
    use streamit::graph::DataType;
    use streamit::Compiler;

    use super::irgen::{gen_block, Gen, Scope};
    use super::varied_input;
    use super::{Duration, RunConfig};

    /// A heavy stateless 1->1 stage: enough work per item that the
    /// coarse-grained fission heuristic elects to replicate it.
    fn heavy_stage() -> streamit::graph::StreamNode {
        FilterBuilder::new("heavy", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| {
                let mut e = pop();
                for k in 1..60i64 {
                    e = e * lit(2i64) + lit(k);
                }
                b.push(e)
            })
            .build_node()
    }

    /// Outcome of one generated case.
    pub(super) enum Case {
        /// Rates not statically exact (or graph invalid): nothing to compare.
        Skipped,
        /// Parallel engine declined the pipeline.
        Declined,
        /// Reference and parallel engines ran and agreed.
        Compared,
    }

    pub(super) fn run_case(seed: u64) -> Case {
        let mut g = Gen(seed | 1);
        let mut sc = Scope::default();
        let block = gen_block(&mut g, &mut sc, 2);

        let analysis = analyze_block(&block, &HashMap::new());
        let (Some(pop_n), Some(push_n), Some(need)) = (
            analysis.pops.as_constant(),
            analysis.pushes.as_constant(),
            analysis.need.as_constant(),
        ) else {
            return Case::Skipped;
        };
        if pop_n < 0 || push_n < 0 || need < 0 || push_n > 4096 || need > 4096 {
            return Case::Skipped;
        }
        let peek = need.max(pop_n) as usize;

        let body = block.clone();
        let gen_filter = FilterBuilder::new("gen", DataType::Int)
            .rates(peek, pop_n as usize, push_n as usize)
            .work(move |b| body.iter().cloned().fold(b, |b, s| b.stmt(s)))
            .build_node();
        // A pipeline stage needs a producer rate > 0 for a valid steady
        // state; bodies that push nothing are tested bare.
        let stream = if push_n > 0 {
            pipeline("p", vec![gen_filter, heavy_stage()])
        } else {
            gen_filter
        };
        let p = match Compiler::default().compile_stream(stream) {
            Ok(p) => p,
            Err(_) => return Case::Skipped,
        };
        let pg = match p.compile_parallel(2) {
            Ok(pg) => pg,
            Err(ExecError::Unsupported { .. }) => return Case::Declined,
            Err(e) => panic!("seed {seed}: unexpected compile_parallel error: {e}"),
        };

        // Three steady iterations' worth of output, bit-compared.
        let k = 3u64;
        let n = (pg.init_outputs() + k * pg.outputs_per_iteration()) as usize;
        let input = varied_input(pg.required_input(k) as usize);
        let parallel = pg
            .run_steady(&input, k)
            .unwrap_or_else(|e| panic!("seed {seed}: parallel run failed: {e}\n{block:#?}"));
        // Three iterations end inside the inline budget; a supervised
        // run has a worker per stage from the first.
        let supervised = RunConfig {
            watchdog: Some(Duration::from_secs(120)),
            ..RunConfig::default()
        };
        let threaded = pg
            .run(&input, k, &supervised)
            .unwrap_or_else(|e| panic!("seed {seed}: supervised run failed: {e}\n{block:#?}"));
        let tb: Vec<u64> = threaded.iter().map(|v| v.to_bits()).collect();
        let mut reference = p
            .run(&input, n)
            .unwrap_or_else(|e| panic!("seed {seed}: reference run failed: {e}\n{block:#?}"));
        reference.truncate(n);
        let pb: Vec<u64> = parallel.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            tb, pb,
            "seed {seed}: workers and inline stages disagree\nworkers: {threaded:?}\ninline:  {parallel:?}\n{block:#?}"
        );
        let rb: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            pb, rb,
            "seed {seed}: engines disagree\nparallel:  {parallel:?}\nreference: {reference:?}\n{block:#?}"
        );
        Case::Compared
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Differential property: every generated pipeline the parallel
        /// engine accepts produces bit-identical output to the
        /// reference interpreter.
        #[test]
        fn prop_generated_pipelines_agree(seed in 0u64..u64::MAX) {
            run_case(seed);
        }
    }
}

/// Non-vacuity guard for the proptest above: over a fixed seed sweep, a
/// healthy fraction of generated pipelines must actually reach the
/// bit-compare path (exact rates, accepted by the parallel engine).
#[test]
fn generated_sweep_compares_a_healthy_fraction() {
    let mut compared = 0usize;
    let mut declined = 0usize;
    for seed in 0..256u64 {
        match generated::run_case(seed) {
            generated::Case::Compared => compared += 1,
            generated::Case::Declined => declined += 1,
            generated::Case::Skipped => {}
        }
    }
    assert!(
        compared >= 16,
        "only {compared} of 256 generated cases were bit-compared ({declined} declined) — \
         the differential property is near-vacuous"
    );
}
