//! Differential tests for horizontal fusion (DESIGN.md "Horizontal
//! fusion"): a program's plan runs its round-robin split-joins of plain
//! filters as one filter each, and must produce a stream *bit-identical*
//! to the plan of the graph as written — on the compiled engine, on the
//! parallel engine at every thread count (which fisses the fused graph)
//! and through a `Session` sliced at random.  Checked on the fifteen
//! apps in every linear mode, on the example programs, on generated
//! bodies placed in split-joins, and on the apps with every eligible
//! filter wrapped in a one-branch split-join.  Each rule that keeps a
//! split-join unfused has its negative case, and the graphs with nothing
//! to fuse keep the plan they had.

use std::collections::HashMap;
use std::sync::Arc;

use streamit::analysis::analyze_block;
use streamit::exec::{CompiledGraph, ExecError, SessionConfig};
use streamit::graph::builder::*;
use streamit::graph::fuse::fuse;
use streamit::graph::{
    DataType, Joiner, KernelRow, KernelSpec, SplitJoin, Splitter, Stmt, StreamNode, Value,
};
use streamit::linear::LinearMode;
use streamit::{apps, CompiledProgram, Compiler, Options};

#[path = "support/corpus.rs"]
mod corpus;
use corpus::varied_input;

#[path = "support/irgen.rs"]
mod irgen;
use irgen::{gen_block, Gen, Scope};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn compile_with(stream: StreamNode, linear: Option<LinearMode>) -> CompiledProgram {
    let options = Options {
        linear,
        ..Options::default()
    };
    Compiler::new(options)
        .compile_stream(stream)
        .expect("the graph compiles")
}

/// The graph as written, planned without fusion.
fn unfused(p: &CompiledProgram) -> Result<CompiledGraph, ExecError> {
    CompiledGraph::compile(&p.flat, p.stream.input_type())
}

/// Steady iterations `cg` needs for `n` outputs.
fn iterations(cg: &CompiledGraph, n: usize) -> u64 {
    let n = n as u64;
    n.saturating_sub(cg.init_outputs())
        .div_ceil(cg.outputs_per_iteration().max(1))
}

/// Serve `n` outputs of `cg` through a session whose push, step and
/// pull sizes `g` draws.
fn session_collect(cg: &Arc<CompiledGraph>, input: &[f64], n: usize, g: &mut Gen) -> Vec<f64> {
    let mut session = cg
        .open_session(&SessionConfig::with_buffers(24))
        .expect("the session opens");
    let (mut fed, mut got, mut idle) = (0, Vec::new(), 0);
    while got.len() < n {
        let before = (fed, got.len());
        let push = 1 + g.below(17) as usize;
        fed += session.push_input(&input[fed..input.len().min(fed + push)]);
        session.step(1 + g.below(5)).expect("the session steps");
        got.extend(session.pull_output(1 + g.below(13) as usize));
        idle = if (fed, got.len()) == before {
            idle + 1
        } else {
            0
        };
        assert!(idle < 8, "session stalled at {} of {n} outputs", got.len());
    }
    got.truncate(n);
    got
}

/// Every engine of `p` against its unfused plan, by bits, for `n`
/// outputs; `false` when both decline.
fn fused_matches_unfused(what: &str, p: &CompiledProgram, n: usize, seed: u64) -> bool {
    let (fused, plain) = match (p.compile_exec(), unfused(p)) {
        (Ok(f), Ok(u)) => (f, u),
        (Err(_), Err(_)) => return false,
        (f, u) => panic!("{what}: fused {:?} but unfused {:?}", f.err(), u.err()),
    };
    let k = iterations(&plain, n).max(iterations(&fused, n));
    let need = plain.required_input(k).max(fused.required_input(k));
    let input = varied_input(need as usize);
    let want = bits(&plain.run_collect(&input, n).expect("unfused runs"));
    let got = fused.run_collect(&input, n).expect("fused runs");
    assert_eq!(bits(&got), want, "{what}: compiled engine");
    for threads in [1, 2, 4] {
        match p.compile_parallel(threads) {
            Ok(pg) => {
                let kp = pg.plan().stats.iterations_for(n as u64).expect("finite");
                let pin = varied_input(pg.required_input(kp).max(need) as usize);
                let got = pg.run_collect(&pin, n).expect("parallel runs");
                assert_eq!(bits(&got), want, "{what}: parallel@{threads}");
            }
            Err(ExecError::Unsupported { .. }) => {}
            Err(e) => panic!("{what}: parallel@{threads}: {e}"),
        }
    }
    if fused.outputs_per_iteration() > 0 {
        let got = session_collect(&Arc::new(fused), &input, n, &mut Gen(seed | 1));
        assert_eq!(bits(&got), want, "{what}: session");
    }
    plans_what_the_pass_fuses(what, p);
    true
}

/// The plan of `p`, which both plans admit, runs what the pass fuses:
/// no fused body lost its lanes, so the plan did not fall back to the
/// graph as written.
fn plans_what_the_pass_fuses(what: &str, p: &CompiledProgram) {
    let planned = p.compile_exec().expect("planned");
    let pass = fuse(&p.flat).map(|(_, report)| report).unwrap_or_default();
    assert_eq!(p.fusion_report(), pass, "{what}: the plan fell back");
    for r in p.fusion_report() {
        if let Some(code) = planned.plan().codes.iter().find(|c| c.name == r.name) {
            assert!(code.work.lane_safe, "{what}: {} lost its lanes", r.name);
        }
    }
}

#[test]
fn apps_fused_and_unfused_agree_on_every_engine_and_linear_mode() {
    let mut fused = HashMap::new();
    for linear in [
        None,
        Some(LinearMode::Replacement),
        Some(LinearMode::Frequency),
    ] {
        for (i, app) in apps::corpus().iter().enumerate() {
            let p = compile_with(app.graph(), linear);
            let what = format!("{} ({linear:?})", app.name);
            fused_matches_unfused(&what, &p, app.prefix, i as u64);
            if !p.fusion_report().is_empty() {
                *fused.entry(app.name).or_insert(0) += p.fusion_report().len();
            }
        }
    }
    eprintln!("fused split-joins per app over the three modes: {fused:?}");
    // bitonic's fifteen comparator banks.  Under the linear modes its
    // permutations become float kernels, so each bank's joiner turns
    // ints into floats, which a fused bank would not: those stay.
    assert_eq!(fused.get("bitonic"), Some(&15), "{fused:?}");
}

#[test]
fn example_programs_fused_and_unfused_agree() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/str");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples exist") {
        let path = entry.expect("readable").path();
        let source = std::fs::read_to_string(&path).expect("readable");
        let p = Compiler::default()
            .compile_source(&source, "Main")
            .expect("the example compiles");
        fused_matches_unfused(&path.display().to_string(), &p, 64, seen);
        seen += 1;
    }
    assert!(seen >= 4, "{seen} examples");
}

// ---- generated bodies in split-joins ------------------------------------

/// The body seed `seed` generates, its tape type and its exact
/// `[peek, pop, push]`, or `None` when the rates are not exact.
fn generate(seed: u64) -> Option<(Vec<Stmt>, DataType, [usize; 3])> {
    let mut g = Gen(seed | 1);
    let block = gen_block(&mut g, &mut Scope::default(), 2);
    let ty = [DataType::Int, DataType::Float][g.below(2) as usize];
    let a = analyze_block(&block, &HashMap::new());
    let (pop, push, need) = (
        a.pops.as_constant()?,
        a.pushes.as_constant()?,
        a.need.as_constant()?,
    );
    if pop < 0 || push < 0 || need < 0 || push > 512 || need > 512 {
        return None;
    }
    Some((
        block,
        ty,
        [need.max(pop) as usize, pop as usize, push as usize],
    ))
}

/// What one generated case reached.
#[derive(Default)]
struct Sweep {
    compared: usize,
    /// Cases the program's plan ran fused.
    fused: usize,
}

/// Seed `seed`'s body, where its rates allow, as the first branch of a
/// round-robin split-join (fired once per splitter firing) whose second
/// branch is another seed's body fired twice (or the same body, when
/// the other's rates do not allow), between two identities; else the
/// body alone there.  Then the program's plan and the unfused plan
/// against the reference interpreter, by bits, and the plan runs what
/// the pass fuses.
fn generated_case(seed: u64, sweep: &mut Sweep) {
    let Some((block, ty, rates)) = generate(seed) else {
        return;
    };
    let gen = |name: &str, block: &[Stmt], [peek, pop, push]: [usize; 3]| {
        let body = block.to_vec();
        FilterBuilder::new(name, ty)
            .rates(peek, pop, push)
            .work(move |b| body.into_iter().fold(b, |b, s| b.stmt(s)))
            .build_node()
    };
    let fusable = |[peek, pop, push]: [usize; 3]| pop > 0 && push > 0 && peek <= pop;
    let middle = if fusable(rates) {
        let other = generate(seed ^ 0x5EED_0000).filter(|(_, _, r)| fusable(*r));
        let (other, orates) = other.map_or((block.clone(), rates), |(b, _, r)| (b, r));
        let rr = |a: usize, b: usize| vec![a as u64, 2 * b as u64];
        splitjoin(
            "sj",
            Splitter::RoundRobin(rr(rates[1], orates[1])),
            vec![gen("g0", &block, rates), gen("g1", &other, orates)],
            Joiner::RoundRobin(rr(rates[2], orates[2])),
        )
    } else {
        gen("g", &block, rates)
    };
    let stream = pipeline(
        "p",
        vec![identity("head", ty), middle, identity("tail", ty)],
    );
    let Ok(p) = Compiler::default().compile_stream(stream) else {
        return;
    };
    let Ok(plain) = unfused(&p) else {
        assert!(p.compile_exec().is_err(), "seed {seed}: fusion admitted it");
        return;
    };
    let n = (plain.init_outputs() + 3 * plain.outputs_per_iteration()) as usize;
    if n == 0 {
        return;
    }
    let input = varied_input(plain.required_input(3) as usize);
    let want = bits(&plain.run_collect(&input, n).expect("unfused runs"));
    let mut reference = p.run(&input, n).expect("the reference runs");
    reference.truncate(n);
    assert_eq!(bits(&reference), want, "seed {seed}: unfused vs reference");
    let planned = p.compile_exec().expect("the plan falls back to flat");
    let got = planned.run_collect(&input, n).expect("the plan runs");
    assert_eq!(
        bits(&got),
        want,
        "seed {seed}: the program's plan\n{block:#?}"
    );
    plans_what_the_pass_fuses(&format!("seed {seed}"), &p);
    sweep.compared += 1;
    sweep.fused += usize::from(!p.fusion_report().is_empty());
}

#[test]
fn generated_bodies_in_split_joins_agree() {
    let mut sweep = Sweep::default();
    for seed in 0..600 {
        generated_case(seed, &mut sweep);
    }
    let Sweep { compared, fused } = sweep;
    eprintln!("600 seeds: {compared} compared, {fused} fused by the plan");
    assert!(
        compared >= 120 && fused >= 8,
        "{compared} compared, {fused} fused"
    );
}

// ---- metamorphic: a filter is its own one-branch split-join ------------

/// `s` with every filter a split-join can absorb wrapped in a
/// one-branch round-robin split-join of its own rates.
fn wrap(s: StreamNode) -> StreamNode {
    match s {
        StreamNode::Filter(f)
            if f.input.is_some()
                && f.output.is_some()
                && f.pop > 0
                && f.peek <= f.pop
                && f.prework.is_none()
                && f.handlers.is_empty() =>
        {
            let (pop, push) = (f.pop as u64, f.push as u64);
            StreamNode::SplitJoin(SplitJoin {
                name: format!("{}_w", f.name),
                splitter: Splitter::RoundRobin(vec![pop]),
                children: vec![StreamNode::Filter(f)],
                joiner: Joiner::RoundRobin(vec![push]),
            })
        }
        StreamNode::Pipeline(mut p) => {
            p.children = p.children.into_iter().map(wrap).collect();
            StreamNode::Pipeline(p)
        }
        StreamNode::SplitJoin(mut sj) => {
            sj.children = sj.children.into_iter().map(wrap).collect();
            StreamNode::SplitJoin(sj)
        }
        StreamNode::FeedbackLoop(mut l) => {
            l.body = Box::new(wrap(*l.body));
            l.loopback = Box::new(wrap(*l.loopback));
            StreamNode::FeedbackLoop(l)
        }
        other => other,
    }
}

#[test]
fn wrapping_filters_in_one_branch_split_joins_changes_no_output() {
    let mut wrapped_fused = 0;
    for app in apps::corpus() {
        let p = compile_with(app.graph(), None);
        let w = compile_with(wrap(app.graph()), None);
        let (Ok(cg), Ok(wg)) = (p.compile_exec(), w.compile_exec()) else {
            continue;
        };
        let n = app.prefix;
        let k = iterations(&cg, n).max(iterations(&wg, n));
        let input = varied_input(cg.required_input(k).max(wg.required_input(k)) as usize);
        let want = cg.run_collect(&input, n).expect("runs");
        let got = wg.run_collect(&input, n).expect("wrapped runs");
        assert_eq!(bits(&got), bits(&want), "{}", app.name);
        wrapped_fused += w.fusion_report().len() - p.fusion_report().len();
        fused_matches_unfused(&format!("{} wrapped", app.name), &w, n, 7);
    }
    assert!(wrapped_fused >= 50, "{wrapped_fused} wrappers fused");
}

// ---- what stays unfused ------------------------------------------------

fn scale(name: &str) -> FilterBuilder {
    FilterBuilder::new(name, DataType::Int)
        .rates(1, 1, 1)
        .work(|b| b.push(pop() * lit(3i64)))
}

fn around(branches: Vec<StreamNode>) -> StreamNode {
    let n = branches.len();
    pipeline(
        "p",
        vec![
            identity("a", DataType::Int),
            splitjoin(
                "sj",
                Splitter::RoundRobin(vec![1; n]),
                branches,
                Joiner::RoundRobin(vec![1; n]),
            ),
            identity("z", DataType::Int),
        ],
    )
}

/// A split-join of `other` beside a plain branch is left as written:
/// by the pass (`graph_fuses` false) or by the plan, and the program's
/// output, or its being declined, does not change either way.
fn stays_unfused(what: &str, stream: StreamNode, graph_fuses: bool) {
    let p = compile_with(stream, None);
    assert_eq!(fuse(&p.flat).is_some(), graph_fuses, "{what}");
    assert!(
        p.fusion_report().is_empty(),
        "{what}: {:?}",
        p.fusion_report()
    );
    assert_eq!(p.exec_graph(), &p.flat, "{what}");
    fused_matches_unfused(what, &p, 24, 3);
}

#[test]
fn each_disqualifier_leaves_its_split_join_unfused() {
    let plain = || scale("x").build_node();
    let peeking = FilterBuilder::new("pk", DataType::Int)
        .rates(2, 1, 1)
        .work(|b| b.push(peek(1)).pop_discard())
        .build_node();
    stays_unfused("peeking branch", around(vec![plain(), peeking]), false);
    let prework = scale("pw")
        .prework(0, 0, 1, |b| b.push(lit(7i64)))
        .build_node();
    stays_unfused("prework", around(vec![plain(), prework]), false);
    let handler = scale("h")
        .state("k", DataType::Int, Value::Int(3))
        .handler("set", vec![("v", DataType::Int)], |b| b.set("k", var("v")))
        .build_node();
    stays_unfused("handler", around(vec![plain(), handler]), false);
    // The compiled engines decline `send` on their own, fused or not.
    let send = scale("s")
        .work(|b| b.send("portal", "h", vec![], (0, 0)).push(pop()))
        .build_node();
    stays_unfused("send", around(vec![plain(), send]), false);
    let kernel = FilterBuilder::new("kern", DataType::Float)
        .rates(1, 1, 1)
        .work(|b| b.push(pop() * lit(2.0)))
        .kernel(KernelSpec::Linear {
            peek: 1,
            pop: 1,
            rows: vec![KernelRow {
                taps: vec![(0, 2.0)],
                constant: 0.0,
            }],
        })
        .build_node();
    let float = |name: &str| {
        FilterBuilder::new(name, DataType::Float)
            .rates(1, 1, 1)
            .work(|b| b.push(pop() + lit(1.0)))
            .build_node()
    };
    let sj = splitjoin(
        "sj",
        Splitter::RoundRobin(vec![1, 1]),
        vec![float("f"), kernel],
        Joiner::RoundRobin(vec![1, 1]),
    );
    let kernel_sj = pipeline("p", vec![float("a"), sj, float("z")]);
    stays_unfused("kernel hint", kernel_sj, false);
    // Two items to a branch that pops three: its firings straddle the
    // splitter's.
    let straddling = FilterBuilder::new("three", DataType::Int)
        .rates(3, 3, 3)
        .work(|b| b.push(pop()).push(pop()).push(pop()))
        .build_node();
    let inexact = pipeline(
        "p",
        vec![
            identity("a", DataType::Int),
            splitjoin(
                "sj",
                Splitter::RoundRobin(vec![2, 2]),
                vec![plain(), straddling],
                Joiner::RoundRobin(vec![2, 2]),
            ),
            identity("z", DataType::Int),
        ],
    );
    stays_unfused("inexact rates", inexact, false);
    // A joiner that takes two firings' pushes from each branch in turn.
    let regrouped = pipeline(
        "p",
        vec![
            identity("a", DataType::Int),
            splitjoin(
                "sj",
                Splitter::RoundRobin(vec![1, 1]),
                vec![plain(), scale("y").build_node()],
                Joiner::RoundRobin(vec![2, 2]),
            ),
            identity("z", DataType::Int),
        ],
    );
    stays_unfused("joiner weight", regrouped, false);
    // A counter writes its state, so its body has no lanes; fused with a
    // branch that has them, that branch would lose its lanes.
    let counter = scale("c")
        .state("n", DataType::Int, Value::Int(0))
        .work(|b| b.set("n", var("n") + pop()).push(var("n")))
        .build_node();
    stays_unfused("mixed lane safety", around(vec![plain(), counter]), false);
}

/// A branch that declares `peek 1, pop 1, push 1` and peeks at state
/// index `k` (read-only, so the analysis knows it; the rate check of
/// `graph::validate` does not) with `pops` pops after the peek.
fn misdeclared(name: &str, k: i64, pops: usize) -> StreamNode {
    FilterBuilder::new(name, DataType::Int)
        .rates(1, 1, 1)
        .state("k", DataType::Int, Value::Int(k))
        .work(move |b| {
            let b = b.let_("t", DataType::Int, peek(var("k")));
            let sum = (0..pops).fold(var("t"), |e, _| e + pop());
            b.push(sum)
        })
        .build_node()
}

/// Branches whose bodies break their declared rates are declined as
/// written, so they must be declined fused too — even where the fused
/// body's totals come out right: a branch popping none beside one
/// popping two, or a branch peeking into its sibling's item.
#[test]
fn misdeclared_branches_stay_declined() {
    let cases = [
        (
            "cancelling pops",
            vec![misdeclared("none", 0, 0), misdeclared("two", 0, 2)],
        ),
        (
            "peek past its window",
            vec![misdeclared("over", 1, 1), scale("x").build_node()],
        ),
    ];
    for (what, branches) in cases {
        let p = compile_with(around(branches), None);
        // Planned alone, the fused graph would pass the gate.
        let (g, _) = fuse(&p.flat).expect("the pass fuses it");
        CompiledGraph::compile(&g, p.stream.input_type())
            .unwrap_or_else(|e| panic!("{what}: the fused body declined: {e}"));
        // The program's plan is declined as the graph as written is.
        let declined = |r: Result<CompiledGraph, ExecError>| match r {
            Err(ExecError::Unsupported { reason }) => reason,
            other => panic!("{what}: planned {:?}", other.map(|_| ())),
        };
        let reason = declined(p.compile_exec());
        assert!(reason.contains("not statically safe"), "{what}: {reason}");
        assert_eq!(reason, declined(unfused(&p)), "{what}");
        assert!(p.fusion_report().is_empty(), "{what}");
        assert!(
            p.run(&[1.0; 64], 8).is_err(),
            "{what}: the reference runs it"
        );
    }
}

/// One branch declares a local `t`, the next reads its own state `t`
/// and declares a local `s`, the last reads its state `s`: fused, each
/// must still see its own.
#[test]
fn branch_names_never_capture_each_other() {
    let local = FilterBuilder::new("local", DataType::Int)
        .rates(1, 1, 1)
        .work(|b| b.let_("t", DataType::Int, pop() * lit(2i64)).push(var("t")))
        .build_node();
    let both = FilterBuilder::new("both", DataType::Int)
        .rates(1, 1, 1)
        .state("t", DataType::Int, Value::Int(5))
        .work(|b| b.let_("s", DataType::Int, pop() + var("t")).push(var("s")))
        .build_node();
    let state = FilterBuilder::new("state", DataType::Int)
        .rates(1, 1, 1)
        .state("s", DataType::Int, Value::Int(-3))
        .work(|b| b.push(pop() * var("s")))
        .build_node();
    let p = compile_with(around(vec![local, both, state]), None);
    let names: Vec<&str> = p.fusion_report().iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["p/sj/local+both+state"]);
    assert!(fused_matches_unfused("capture", &p, 30, 5));
    let got = p
        .compile_exec()
        .expect("planned")
        .run_collect(&[1.0; 6], 6)
        .expect("runs");
    assert_eq!(got, [2.0, 6.0, -3.0, 2.0, 6.0, -3.0]);
}

// ---- plans unchanged where nothing fuses --------------------------------

/// The teleport-fallback radio, with its messages or without.
fn radio(sends: bool) -> String {
    let (loud, quiet, register) = match sends {
        true => (
            "send hop.retune(0.5) [4, 4];",
            "send hop.retune(1.0) [4, 4];",
            "register hop rf;",
        ),
        false => ("", "", ""),
    };
    format!(
        r#"
float->float filter Mixer() {{
    float gain;
    init {{ gain = 1.0; }}
    work pop 1 push 1 {{ push(pop() * gain); }}
    handler retune(float g) {{ gain = g; }}
}}
float->float filter LowPass(int N) {{
    float[N] h;
    init {{ for (int i = 0; i < N; i++) h[i] = 1.0 / (i + 1); }}
    work peek N pop 1 push 1 {{
        float s = 0.0;
        for (int i = 0; i < N; i++) s += peek(i) * h[i];
        push(s);
        pop();
    }}
}}
float->float filter Detector(int W) {{
    work peek W pop W push W {{
        float e = 0.0;
        for (int i = 0; i < W; i++) e += abs(peek(i));
        if (e / W > 0.25) {{ {loud} }} else {{ {quiet} }}
        for (int i = 0; i < W; i++) push(pop());
    }}
}}
float->float pipeline Main() {{
    add Mixer() as rf;
    add LowPass(16);
    add Detector(64);
    {register}
}}
"#
    )
}

/// The workloads whose graphs hold no candidate keep their graph and
/// their plan, op for op.
#[test]
fn graphs_with_nothing_to_fuse_keep_their_plans() {
    let mut programs = Vec::new();
    for linear in [
        None,
        Some(LinearMode::Replacement),
        Some(LinearMode::Frequency),
    ] {
        programs.push(compile_with(apps::fmradio::fmradio(10, 64), linear));
    }
    programs.push(compile_with(apps::filterbank::filterbank(8, 32), None));
    programs.push(compile_with(apps::fmradio::fmradio(4, 16), None));
    for sends in [true, false] {
        let source = radio(sends);
        programs.push(
            Compiler::default()
                .compile_source(&source, "Main")
                .expect("compiles"),
        );
    }
    for (i, p) in programs.iter().enumerate() {
        assert_eq!(fuse(&p.flat), None, "program {i}");
        assert!(p.fusion_report().is_empty(), "program {i}");
        assert!(std::ptr::eq(p.exec_graph(), &p.flat), "program {i}");
        match (p.compile_exec(), unfused(p)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    format!("{:?}", a.plan()),
                    format!("{:?}", b.plan()),
                    "program {i}"
                )
            }
            (a, _) => assert!(!p.portals.is_empty() && a.is_err(), "program {i}"),
        }
    }
}

// ---- fission after fusion ----------------------------------------------

/// The parallel engine fisses the fused graph.  A fused filter is never
/// a fission candidate (DESIGN.md "Horizontal fusion"), and fission's
/// replicas (named `…[iofn]`) are planned as fission made them: nothing
/// fuses its round-robin split-join of replicas back into one filter.
#[test]
fn fission_replicas_of_a_fused_graph_are_never_fused_again() {
    let heavy = |name: &str| {
        FilterBuilder::new(name, DataType::Int)
            .rates(1, 1, 1)
            .work(|b| {
                let mut e = pop();
                for k in 1..60i64 {
                    e = e * lit(2i64) + lit(k);
                }
                b.push(e)
            })
            .build_node()
    };
    let bank = splitjoin(
        "bank",
        Splitter::RoundRobin(vec![1, 1]),
        vec![scale("x").build_node(), scale("y").build_node()],
        Joiner::RoundRobin(vec![1, 1]),
    );
    let stream = pipeline(
        "p",
        vec![identity("a", DataType::Int), bank, heavy("h1"), heavy("h2")],
    );
    let p = compile_with(stream, None);
    assert_eq!(p.fusion_report().len(), 1);
    let pg = p.compile_parallel(2).expect("runs in parallel");
    let [region] = pg.fission_report() else {
        panic!("fission took {:?}", pg.fission_report());
    };
    assert!(
        region.members.iter().all(|m| m.starts_with("p/h")),
        "{region:?}"
    );
    let names: Vec<&str> = pg.plan().codes.iter().map(|c| c.name.as_str()).collect();
    let replicas = names.iter().filter(|n| n.contains('[')).count();
    assert_eq!(replicas, region.ways * region.members.len(), "{names:?}");
    assert!(names.contains(&"p/bank/x+y"), "{names:?}");
    assert!(
        !names.iter().any(|n| n.contains('[') && n.contains('+')),
        "{names:?}"
    );
    fused_matches_unfused("fused and fissed", &p, 64, 11);
}

/// Fission leaves out only the filters a pass made: the linear
/// optimizer's combined stages, whose names join their members with `+`
/// as a fused filter's do, are still fissed.
#[test]
fn combined_linear_stages_are_still_fissed() {
    let app = apps::corpus()
        .iter()
        .find(|a| a.name == "mpeg2")
        .expect("mpeg2 is an app");
    let p = compile_with(app.graph(), Some(LinearMode::Replacement));
    let pg = p.compile_parallel(2).expect("runs in parallel");
    let [region] = pg.fission_report() else {
        panic!("fission took {:?}", pg.fission_report());
    };
    assert_eq!(region.members.len(), 3, "{region:?}");
    assert!(
        region.members[0].ends_with("InvQuant+ZigZag+iDCTRows"),
        "{region:?}"
    );
}

/// `streamitc --profile` lists what the plan fused.
#[test]
fn streamitc_profile_prints_the_fusion_report() {
    let source = "int->int filter A() { work pop 1 push 1 { push(pop() * 2); } }\n\
                  int->int filter B() { work pop 1 push 1 { push(pop() + 1); } }\n\
                  int->int filter Id() { work pop 1 push 1 { push(pop()); } }\n\
                  int->int splitjoin Bank() { split roundrobin; add A(); add B(); join roundrobin; }\n\
                  int->int pipeline Main() { add Id(); add Bank(); add Id(); }\n";
    let dir = std::env::temp_dir().join(format!("fusion_profile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bank.str");
    std::fs::write(&path, source).expect("writes");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_streamitc"))
        .args([path.to_str().expect("utf-8"), "--run", "8", "--profile"])
        .output()
        .expect("streamitc runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("== fused split-joins (1) =="), "{stdout}");
    assert!(stdout.contains("Main/Bank/A+B"), "{stdout}");
    assert!(stdout.contains("Main/Bank/A, Main/Bank/B"), "{stdout}");
}
