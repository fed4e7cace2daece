//! The lowering cache (`exec::LoweringCache`, DESIGN.md "Lowering
//! cache") gives a filter the code it lowered for an earlier filter with
//! the same body, tape types and options.  Checked here: what it hands
//! out is what lowering that filter alone makes (a); two bodies that
//! differ in anything but the instance name never share an entry (b);
//! the sharing happens (c); a program's engines share its one plan, so
//! a graph fission leaves alone is planned once (d); and a program with
//! its plan inside is still `Send + Sync` (e).

use std::collections::{HashMap, HashSet};

#[path = "support/irgen.rs"]
mod irgen;

use streamit::analysis::analyze_block;
use streamit::exec::bytecode::{FilterCode, Inst, Program, Rates};
use streamit::exec::plan::{tape_types, LowerOptions};
use streamit::exec::{CompiledGraph, LoweringCache};
use streamit::graph::builder::*;
use streamit::graph::{DataType, Expr, Filter, FlatGraph, KernelRow, KernelSpec, Stmt, StreamNode};
use streamit::linear::LinearMode;
use streamit::rt::transform::fiss_graph;
use streamit::{CompiledProgram, Compiler, Options};

// (e): the plan is made once behind a lock, so a program can still be
// shared between threads (`streamd` serves one to many connections).
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<CompiledProgram>();
};

/// One lowered body as the engine sees it, every float by its bits.
#[derive(Debug, PartialEq)]
struct Body {
    code: String,
    floats: Vec<u64>,
    pool: Vec<u64>,
    rates: Rates,
    lane_safe: bool,
}

fn body(p: &Program) -> Body {
    let floats = p
        .code
        .iter()
        .filter_map(|i| match i {
            Inst::ConstF { v, .. } => Some(v.to_bits()),
            Inst::ArithFK { imm, .. } | Inst::ArithKF { imm, .. } => Some(imm.to_bits()),
            _ => None,
        })
        .collect();
    Body {
        code: format!("{:?}", p.code),
        floats,
        pool: p.pool.iter().map(|x| x.to_bits()).collect(),
        rates: p.rates,
        lane_safe: p.lane_safe,
    }
}

/// Everything a `FilterCode` carries, comparable by bits.
#[derive(Debug, PartialEq)]
struct Lowered {
    name: String,
    work: Body,
    prework: Option<Body>,
    sizes: [u32; 4],
    init_i: Vec<(u16, i64)>,
    init_f: Vec<(u16, u64)>,
    init_ai: Vec<(u32, Vec<i64>)>,
    init_af: Vec<(u32, Vec<u64>)>,
    kernel: bool,
}

fn lowered(c: &FilterCode) -> Lowered {
    Lowered {
        name: c.name.clone(),
        work: body(&c.work),
        prework: c.prework.as_ref().map(body),
        sizes: [c.n_i, c.n_f, c.arena_i, c.arena_f],
        init_i: c.init_i.clone(),
        init_f: c.init_f.iter().map(|&(r, x)| (r, x.to_bits())).collect(),
        init_ai: c.init_ai.clone(),
        init_af: c
            .init_af
            .iter()
            .map(|(at, xs)| (*at, xs.iter().map(|x| x.to_bits()).collect()))
            .collect(),
        kernel: c.kernel.is_some(),
    }
}

/// Every filter of `g` lowered alone, each through a cache of its own,
/// with the notes that gives.
fn lowered_alone(
    g: &FlatGraph,
    input_ty: DataType,
    opts: LowerOptions,
) -> (Vec<Lowered>, Vec<String>) {
    let mut codes = Vec::new();
    let mut notes = Vec::new();
    for n in &g.nodes {
        let Some(f) = n.as_filter() else { continue };
        let (in_ty, out_ty) = tape_types(g, n, f, input_ty);
        let (code, note) = LoweringCache::default()
            .lower(f, &n.name, in_ty, out_ty, opts)
            .expect("a filter of an accepted graph lowers");
        codes.push(lowered(&code));
        notes.extend(note);
    }
    (codes, notes)
}

/// (a) on one program: the codes and notes both engines got, through
/// each plan's cache, are those of every filter lowered alone.
/// Returns how many filters were compared.
fn engines_match_filters_lowered_alone(what: &str, p: &CompiledProgram) -> usize {
    let opts = LowerOptions {
        opt_level: p.opt_level,
    };
    let ty = p.stream.input_type().unwrap_or(DataType::Float);
    let mut compared = 0;
    if let Ok(cg) = p.compile_exec() {
        let (codes, notes) = lowered_alone(p.exec_graph(), ty, opts);
        let shared: Vec<Lowered> = cg.plan().codes.iter().map(lowered).collect();
        assert_eq!(shared, codes, "{what}: compiled engine");
        assert_eq!(cg.notes(), notes, "{what}: compiled engine notes");
        compared += codes.len();
    }
    if let Ok(pg) = p.compile_parallel(2) {
        // The staged plan is of the fissed graph when fission took,
        // which fission made from the fused graph the serial plan runs.
        let g = match pg.fission_report() {
            [] => p.exec_graph().clone(),
            _ => fiss_graph(p.exec_graph(), 2).expect("fission took").0,
        };
        let (codes, notes) = lowered_alone(&g, ty, opts);
        let shared: Vec<Lowered> = pg.plan().codes.iter().map(lowered).collect();
        assert_eq!(shared, codes, "{what}: parallel engine");
        assert_eq!(pg.notes(), notes, "{what}: parallel engine notes");
        compared += codes.len();
    }
    compared
}

fn program(stream: StreamNode, opt_level: u8, linear: Option<LinearMode>) -> CompiledProgram {
    Compiler::new(Options {
        linear,
        opt_level,
        ..Options::default()
    })
    .compile_stream(stream)
    .expect("compiles")
}

const EXAMPLES: [(&str, &str); 4] = [
    ("combine", include_str!("../examples/str/combine.str")),
    ("fibonacci", include_str!("../examples/str/fibonacci.str")),
    ("filterbank", include_str!("../examples/str/filterbank.str")),
    ("fmradio", include_str!("../examples/str/fmradio.str")),
];

#[test]
fn apps_and_examples_get_what_each_filter_lowered_alone_gets() {
    let mut compared = 0;
    for opt_level in [0, 1] {
        for linear in [
            None,
            Some(LinearMode::Replacement),
            Some(LinearMode::Frequency),
        ] {
            for app in streamit::apps::corpus() {
                let p = program(app.graph(), opt_level, linear);
                let what = format!("{} at opt {opt_level}, linear {linear:?}", app.name);
                compared += engines_match_filters_lowered_alone(&what, &p);
            }
            for (name, source) in EXAMPLES {
                let p = Compiler::new(Options {
                    linear,
                    opt_level,
                    ..Options::default()
                })
                .compile_source(source, "Main")
                .expect("example compiles");
                let what = format!("{name}.str at opt {opt_level}, linear {linear:?}");
                compared += engines_match_filters_lowered_alone(&what, &p);
            }
        }
    }
    assert!(compared > 8_000, "only {compared} filters compared");
}

/// A generated body as a filter over `ty` tapes, declared with the
/// rates the interval analysis proves for it (none when it proves no
/// exact ones, which the gate then refuses).
fn generated_filter(block: &[Stmt], ty: DataType) -> Filter {
    let a = analyze_block(block, &HashMap::new());
    let exact = (
        a.pops.as_constant(),
        a.pushes.as_constant(),
        a.need.as_constant(),
    );
    let [peek, pop, push] = match exact {
        (Some(pop), Some(push), Some(need)) if pop >= 0 && push >= 0 && need >= 0 => {
            [need.max(pop) as usize, pop as usize, push as usize]
        }
        _ => [0, 0, 0],
    };
    let body = block.to_vec();
    FilterBuilder::new("gen", ty)
        .rates(peek, pop, push)
        .work(move |b| body.into_iter().fold(b, |b, s| b.stmt(s)))
        .build()
}

#[test]
fn generated_bodies_get_what_each_lowered_alone_gets() {
    let shared = LoweringCache::default();
    // Short generated bodies recur from seed to seed; Debug tells apart
    // everything the generator varies (it writes one NaN only).
    let mut distinct = HashSet::new();
    let (mut accepted, mut declined) = (0, 0);
    for seed in 0..256u64 {
        let mut g = irgen::Gen(seed | 1);
        let block = irgen::gen_block(&mut g, &mut irgen::Scope::default(), 2);
        for ty in [DataType::Int, DataType::Float] {
            let f = generated_filter(&block, ty);
            for opt_level in [0, 1] {
                let opts = LowerOptions { opt_level };
                distinct.insert(format!("{f:?} {ty:?} {opt_level}"));
                // Three instances of the body: the first lowers it, the
                // others are served from the shared cache.
                for i in 0..3 {
                    let name = format!("Main/gen{seed}_{i}");
                    let alone = LoweringCache::default().lower(&f, &name, Some(ty), Some(ty), opts);
                    let cached = shared.lower(&f, &name, Some(ty), Some(ty), opts);
                    match (&cached, &alone) {
                        (Ok((c, cn)), Ok((a, an))) => {
                            assert_eq!((lowered(c), cn), (lowered(a), an), "seed {seed}");
                            accepted += 1;
                        }
                        (Err(c), Err(a)) => {
                            assert_eq!(c, a, "seed {seed}");
                            assert!(c.starts_with(&format!("{name}: ")), "{c}");
                            declined += 1;
                        }
                        _ => panic!("seed {seed}: shared {cached:?}, alone {alone:?}"),
                    }
                }
            }
        }
    }
    assert_eq!(
        shared.len(),
        distinct.len(),
        "one entry per distinct lowering"
    );
    assert!(
        accepted > 300 && declined > 100,
        "{accepted} accepted, {declined} declined"
    );
}

// ---- (b) exactness ---------------------------------------------------

/// How many lowerings filters `a` and `b` cost through one cache, both
/// on float tapes at the default optimization level.
fn twice(a: &Filter, b: &Filter) -> usize {
    let cache = LoweringCache::default();
    let float = Some(DataType::Float);
    for f in [a, b] {
        let _ = cache.lower(f, &f.name, float, float, LowerOptions::default());
    }
    cache.len()
}

fn float_filter(name: &str, work: impl FnOnce(BlockBuilder) -> BlockBuilder) -> Filter {
    FilterBuilder::new(name, DataType::Float)
        .rates(1, 1, 1)
        .work(work)
        .build()
}

/// `push(pop() + x)` with the literal `x`.
fn adding(x: Expr) -> Filter {
    float_filter("f", |b| b.push(pop() + Ex(x)))
}

#[test]
fn bodies_that_differ_in_one_bit_lower_twice() {
    assert_eq!(
        twice(&adding(Expr::FloatLit(0.0)), &adding(Expr::FloatLit(0.0))),
        1
    );
    assert_eq!(
        twice(&adding(Expr::FloatLit(0.0)), &adding(Expr::FloatLit(-0.0))),
        2
    );
    let nan = f64::NAN;
    let other_nan = f64::from_bits(nan.to_bits() ^ 1);
    assert!(other_nan.is_nan());
    assert_eq!(
        twice(
            &adding(Expr::FloatLit(nan)),
            &adding(Expr::FloatLit(other_nan))
        ),
        2
    );
    assert_eq!(
        twice(&adding(Expr::IntLit(1)), &adding(Expr::FloatLit(1.0))),
        2
    );

    // The last bit of one element of a coefficient array.
    let taps = |last_bit: u64| {
        let mut cs = vec![0.5f64, 0.25, 0.125];
        cs[1] = f64::from_bits(cs[1].to_bits() ^ last_bit);
        FilterBuilder::new("fir", DataType::Float)
            .rates(3, 1, 1)
            .coeffs("h", cs)
            .work(|b| {
                b.push(peek(0) * idx("h", 0) + peek(1) * idx("h", 1) + peek(2) * idx("h", 2))
                    .pop_discard()
            })
            .build()
    };
    assert_eq!(twice(&taps(0), &taps(0)), 1);
    assert_eq!(twice(&taps(0), &taps(1)), 2);

    // A local's name: declaring `s` shadows the state field `s`, so
    // the body that declares `t` instead pushes something else.
    let declaring = |v: &str| {
        FilterBuilder::new("f", DataType::Float)
            .rates(1, 1, 1)
            .state("s", DataType::Float, 0.5)
            .work(|b| b.let_(v, DataType::Float, pop()).push(var("s")))
            .build()
    };
    assert_eq!(twice(&declaring("s"), &declaring("s")), 1);
    assert_eq!(twice(&declaring("s"), &declaring("t")), 2);

    // Either tape's type, and the optimization level.
    let f = adding(Expr::FloatLit(1.0));
    let (int, float) = (Some(DataType::Int), Some(DataType::Float));
    for (a, b) in [
        ((float, float, 1), (int, float, 1)),
        ((float, float, 1), (float, int, 1)),
        ((float, float, 1), (float, float, 0)),
    ] {
        let cache = LoweringCache::default();
        for (in_ty, out_ty, opt_level) in [a, b] {
            let _ = cache.lower(&f, "f", in_ty, out_ty, LowerOptions { opt_level });
        }
        assert_eq!(cache.len(), 2, "{a:?} against {b:?}");
    }
}

#[test]
fn instances_that_differ_only_in_name_lower_once_and_keep_their_names() {
    let cache = LoweringCache::default();
    let opts = LowerOptions::default();
    let lower = |f: &Filter, ty: DataType| cache.lower(f, &f.name, Some(ty), Some(ty), opts);

    let mut first = adding(Expr::FloatLit(1.0));
    first.name = "first".into();
    let mut second = first.clone();
    second.name = "second".into();
    assert_eq!(
        lower(&first, DataType::Float).expect("lowers").0.name,
        "first"
    );
    assert_eq!(
        lower(&second, DataType::Float).expect("lowers").0.name,
        "second"
    );
    assert_eq!(cache.len(), 1);

    // A dropped kernel hint's note names each instance.
    let hinted = |name: &str| {
        let mut f = adding(Expr::FloatLit(2.0));
        f.name = name.into();
        f.kernel = Some(KernelSpec::Linear {
            peek: 1,
            pop: 1,
            rows: vec![KernelRow {
                taps: vec![(0, 1.0)],
                constant: 2.0,
            }],
        });
        f
    };
    for name in ["left", "right"] {
        let (code, note) = lower(&hinted(name), DataType::Int).expect("lowers");
        assert_eq!(code.name, name);
        let note = note.expect("an int tape drops the hint");
        assert!(
            note.starts_with(&format!("warning[L0701] {name}: ")),
            "{note}"
        );
    }
    assert_eq!(cache.len(), 2);

    // So does the reason a body is declined.
    let liar = |name: &str| {
        FilterBuilder::new(name, DataType::Int)
            .rates(1, 1, 2)
            .push(pop())
            .build()
    };
    for name in ["up", "down"] {
        let why = lower(&liar(name), DataType::Int).expect_err("the gate refuses it");
        assert!(
            why.starts_with(&format!("{name}: work function not statically safe (E0601")),
            "{why}"
        );
    }
    assert_eq!(cache.len(), 3);
}

// ---- (c) non-vacuity -------------------------------------------------

#[test]
fn bitonic_sort_lowers_a_handful_of_bodies_for_its_comparators() {
    let p = program(streamit::apps::corpus_app("bitonic").graph(), 1, None);
    let filters = p
        .flat
        .nodes
        .iter()
        .filter(|n| n.as_filter().is_some())
        .count();
    let cache = LoweringCache::default();
    let ty = p.stream.input_type();
    let cg = CompiledGraph::compile_cached(&p.flat, ty, LowerOptions::default(), &cache)
        .expect("bitonic runs compiled");
    assert_eq!(cg.plan().codes.len(), filters);
    let bodies = cache.len();
    assert!(
        filters >= 250 && bodies <= 16,
        "{filters} filters, {bodies} bodies"
    );
}

// ---- (d) one plan ----------------------------------------------------

#[test]
fn the_parallel_engine_plans_nothing_the_compiled_engine_has_not() {
    let mut unfissed = Vec::new();
    for name in streamit::apps::THROUGHPUT_APPS {
        let p = program(streamit::apps::corpus_app(name).graph(), 1, None);
        let pg = p
            .compile_parallel(2)
            .expect("a throughput app runs in parallel");
        if pg.fission_report().is_empty() {
            let cg = p.compile_exec().expect("a throughput app runs compiled");
            assert!(std::ptr::eq(pg.plan(), cg.plan()), "{name} planned twice");
            unfissed.push(name);
        }
    }
    for name in ["fmradio", "filterbank"] {
        assert!(unfissed.contains(&name), "{name} fissed: {unfissed:?}");
    }
}
