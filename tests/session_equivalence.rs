//! Corpus-wide differential tests for the incremental session API: on
//! every app graph the compiled engine accepts, driving a [`Session`]
//! with deliberately awkward push/step/pull chunk sizes must produce a
//! stream bit-identical to the one-shot `run_collect` path — no matter
//! how the input is sliced, because a session and a one-shot run are
//! the same driver over the same op arrays.  The slicing is an input
//! mode of one harness: fixed mutually prime sizes over the whole
//! corpus, and random sizes (plus random `drive` splits one level
//! down) as a property over three representative graphs.  A session
//! stays on unit rounds even where the one-shot path batches, so every
//! step is also checked against a counting model of the unit gate.

use std::sync::Arc;

use streamit::exec::driver::{preload, read_output, Driver, Stop};
use streamit::exec::{CompiledGraph, ExecError, SessionConfig};
use streamit::graph::builder::{lit, pipeline, pop, var, FilterBuilder};
use streamit::graph::{DataType, StreamNode, Value};
use streamit::{apps, CompiledProgram};

#[path = "support/corpus.rs"]
mod corpus;
use corpus::{compile, varied_input};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// How a run is sliced: each call yields the next round's `(push, step,
/// pull)` sizes.  Every size must be at least 1 so a round can always
/// move something.
type Chunks<'a> = &'a mut dyn FnMut() -> (usize, u64, usize);

/// Incrementally serve `n` outputs through a session sliced by `chunks`
/// and compare against one-shot `run_collect`.  Returns the decline
/// reason when the graph is outside the engine's (or the session's)
/// subset.
fn differential(name: &str, p: &CompiledProgram, n: usize, chunks: Chunks) -> Option<String> {
    let cg = match p.compile_exec() {
        Ok(cg) => Arc::new(cg),
        Err(ExecError::Unsupported { reason }) => return Some(reason),
        Err(e) => panic!("{name}: compile_exec failed unexpectedly: {e}"),
    };
    let mut session = match cg.open_session(&SessionConfig::with_buffers(32)) {
        Ok(s) => s,
        // Sink-like graphs with no steady output cannot be *served*;
        // that rejection is part of the session contract.
        Err(ExecError::NoSteadyOutput) => return Some("no steady output".into()),
        Err(e) => panic!("{name}: open_session failed unexpectedly: {e}"),
    };

    let k = if n as u64 <= cg.init_outputs() {
        1
    } else {
        (n as u64 - cg.init_outputs()).div_ceil(cg.outputs_per_iteration().max(1))
    };
    let input = varied_input(cg.required_input(k) as usize);
    let want = cg
        .run_collect(&input, n)
        .unwrap_or_else(|e| panic!("{name}: one-shot run failed: {e}"));

    let mut model = UnitGate::new(&cg, 32);
    let mut fed = 0usize;
    let mut got = Vec::new();
    let mut idle_rounds = 0;
    while got.len() < want.len() {
        let before = (fed, got.len());
        let (push, step, pull) = chunks();
        if fed < input.len() {
            let accepted = session.push_input(&input[fed..input.len().min(fed + push)]);
            fed += accepted;
            model.staged += accepted as u64;
        }
        let ran = session
            .step(step)
            .unwrap_or_else(|e| panic!("{name}: session step failed: {e}"));
        assert_eq!(ran, model.step(step), "{name}: iterations of one step");
        assert_eq!(session.iterations(), model.iterations, "{name}");
        assert_eq!(session.blocked(), model.blocked(), "{name}");
        let pulled = session.pull_output(pull);
        model.waiting -= pulled.len() as u64;
        got.extend(pulled);
        // A session fed the full one-shot input must keep advancing;
        // a livelock here means the gating logic lost items.
        idle_rounds = if (fed, got.len()) == before {
            idle_rounds + 1
        } else {
            0
        };
        assert!(
            idle_rounds < 4,
            "{name}: session livelocked at {} of {} outputs (blocked: {:?})",
            got.len(),
            want.len(),
            session.blocked()
        );
    }
    got.truncate(want.len());
    assert_eq!(
        bits(&want),
        bits(&got),
        "{name}: incremental session diverged from one-shot run"
    );
    None
}

/// What a session does, counted: initialization once its window is
/// staged and its output fits, then one steady iteration at a time
/// while a round's window is staged and a round's output fits.  This is
/// the gate of the unit stride, which a session keeps whether or not
/// its graph batches.
struct UnitGate {
    stats: streamit::exec::plan::Stats,
    out_capacity: u64,
    initialized: bool,
    staged: u64,
    waiting: u64,
    iterations: u64,
}

impl UnitGate {
    /// The model of a session opened `with_buffers(requested)`.
    fn new(cg: &CompiledGraph, requested: u64) -> UnitGate {
        let stats = cg.plan().stats;
        UnitGate {
            stats,
            // Raised to what one phase emits, then to a power of two.
            out_capacity: requested
                .max(stats.init_out)
                .max(stats.round_out)
                .next_power_of_two(),
            initialized: false,
            staged: 0,
            waiting: 0,
            iterations: 0,
        }
    }

    fn blocked(&self) -> Option<Stop> {
        let st = &self.stats;
        let (need_in, need_out) = if self.initialized {
            (st.round_in_required, st.round_out)
        } else {
            (st.init_in_required, st.init_out)
        };
        if self.staged < need_in {
            return Some(Stop::NeedInput(need_in - self.staged));
        }
        let free = self.out_capacity - self.waiting;
        (free < need_out).then(|| Stop::NeedOutputSpace(need_out - free))
    }

    fn step(&mut self, max_iters: u64) -> u64 {
        if !self.initialized {
            if self.blocked().is_some() {
                return 0;
            }
            self.staged -= self.stats.init_in;
            self.waiting += self.stats.init_out;
            self.initialized = true;
        }
        let mut ran = 0;
        while ran < max_iters && self.blocked().is_none() {
            self.staged -= self.stats.round_in;
            self.waiting += self.stats.round_out;
            ran += 1;
        }
        self.iterations += ran;
        ran
    }
}

/// The same invariance one level down: a driver resumed across
/// `drive(k1); drive(k2); …` ends exactly where one `drive(Σk)` does.
fn drive_splits_match_one_drive(name: &str, cg: &CompiledGraph, splits: &[u64]) {
    let total: u64 = splits.iter().sum();
    let input = varied_input(cg.required_input(total) as usize);
    let want = cg
        .run_steady(&input, total)
        .unwrap_or_else(|e| panic!("{name}: one-shot run failed: {e}"));
    let s = cg.plan().schedule();
    let shards = preload(&s, &input, total).expect("input covers the run");
    let mut d = Driver::new(shards, 0, "split drive", None, None);
    for &k in splits {
        let stop = d
            .drive(&s, k)
            .unwrap_or_else(|e| panic!("{name}: drive({k}) failed: {e}"));
        assert_eq!(stop, (k, Stop::Budget), "{name}: splits {splits:?}");
    }
    assert_eq!(d.iterations(), total);
    let got = read_output(&d.into_parts().0, s.ext_out).expect("float output tape");
    assert_eq!(bits(&want), bits(&got), "{name}: splits {splits:?}");
}

/// The fifteen-benchmark corpus, served incrementally.  The four
/// throughput apps (the ones `streamd` ships as builtins) must be
/// servable; the rest may decline with a reason.
#[test]
fn apps_serve_incrementally_bit_identical_to_one_shot() {
    let mut declined = Vec::new();
    let mut served = 0;
    for app in apps::corpus() {
        let name = app.name;
        let p = compile(name, app.graph());
        // Mutually prime sizes, the same every round.
        let Some(reason) = differential(name, &p, app.prefix, &mut || (13, 3, 7)) else {
            served += 1;
            continue;
        };
        assert!(
            !apps::THROUGHPUT_APPS.contains(&name),
            "{name} must be servable incrementally, but declined: {reason}"
        );
        declined.push((name, reason));
    }
    assert_eq!(served + declined.len(), apps::corpus().len());
    eprintln!(
        "session serving declined {} of {} apps: {declined:#?}",
        declined.len(),
        apps::corpus().len()
    );
    assert!(
        declined.len() <= 7,
        "session serving declined too many apps: {declined:#?}"
    );
}

/// `drive` has two strides; splits that straddle the batch factor make
/// it change stride mid-run, in both directions (the random splits of
/// the property below are all shorter than a batch).
#[test]
fn drive_splits_straddling_a_batch_match_one_drive() {
    let graphs = [
        ("fmradio", apps::corpus_app("fmradio").graph()),
        ("bitonic", apps::corpus_app("bitonic").graph()),
        ("source-only", source_only()),
    ];
    for (name, stream) in graphs {
        let cg = compile(name, stream).compile_exec().expect("accepted");
        let k = u64::from(cg.batch_factor().expect("batches"));
        for splits in [
            &[3, 40, 1, 16, 17][..],
            &[k, k],
            &[k - 1, 1],
            &[1, k, k - 1],
        ] {
            drive_splits_match_one_drive(name, &cg, splits);
        }
    }
}

/// A stateful source feeding a doubler: no external input at all, so
/// output space is the only thing that ever gates it.
fn source_only() -> StreamNode {
    let src = FilterBuilder::source("src", DataType::Int)
        .rates(0, 0, 1)
        .state("i", DataType::Int, Value::Int(0))
        .work(|b| b.push(var("i")).set("i", var("i") + lit(1i64)))
        .build_node();
    let x2 = FilterBuilder::new("x2", DataType::Int)
        .rates(1, 1, 1)
        .work(|b| b.push(pop() * lit(2i64)))
        .build_node();
    pipeline("p", vec![src, x2])
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]

    /// Chunking invariance as a property: random push sizes, step
    /// budgets and pull sizes (a fresh draw every round) over a peeking
    /// float graph, an int-tape graph and a source-only graph, and
    /// random `drive` splits of the same runs.
    #[test]
    fn prop_random_chunking_is_bit_identical_to_one_shot(
        sizes in proptest::collection::vec((1usize..48, 1u64..6, 1usize..48), 1..32),
        splits in proptest::collection::vec(0u64..5, 1..8),
    ) {
        let graphs: Vec<(&str, StreamNode, usize)> = vec![
            ("fmradio", apps::corpus_app("fmradio").graph(), 24),
            ("bitonic", apps::corpus_app("bitonic").graph(), 96),
            ("source-only", source_only(), 40),
        ];
        for (name, stream, n) in graphs {
            let p = compile(name, stream);
            let mut round = sizes.iter().cycle();
            let mut chunks = || *round.next().expect("sizes is non-empty");
            let declined = differential(name, &p, n, &mut chunks);
            proptest::prop_assert!(declined.is_none(), "{name} declined: {declined:?}");
            let cg = p.compile_exec().expect("served above");
            drive_splits_match_one_drive(name, &cg, &splits);
        }
    }
}
