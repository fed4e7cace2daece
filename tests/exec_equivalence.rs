//! Differential tests for the compiled steady-state engine: on every
//! graph the engine accepts, its output must be *bit-identical* to the
//! reference interpreter's (both are prefixes of the same deterministic
//! Kahn stream).  Graphs it declines must fail with a clear
//! `Unsupported` reason — never silently wrong output.

use streamit::exec::ExecError;
use streamit::{apps, CompiledProgram};

#[path = "support/corpus.rs"]
mod corpus;
use corpus::{compile, varied_input};

#[path = "support/irgen.rs"]
mod irgen;

#[path = "support/tolerance.rs"]
mod tolerance;

/// Run both engines for `n` outputs and require bit-identical results.
/// Returns the decline reason when the compiled engine rejects the
/// graph (which is acceptable for apps outside its subset).
fn differential(name: &str, p: &CompiledProgram, n: usize) -> Option<String> {
    let cg = match p.compile_exec() {
        Ok(cg) => cg,
        Err(ExecError::Unsupported { reason }) => {
            assert!(!reason.is_empty(), "{name}: empty decline reason");
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
    // `run` can return more than `n` items (the last firing may push
    // several); both engines' streams share the deterministic prefix.
    let mut reference = p
        .run(&input, n)
        .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
    reference.truncate(n);
    tolerance::assert_streams_match(name, tolerance::Tolerance::Bit, &compiled, &reference);
    None
}

/// Each of the fifteen run differentially.  Apps the compiled engine
/// declines are listed with their reason; the four
/// throughput-benchmark apps must be accepted.
#[test]
fn apps_run_bit_identical_on_both_engines() {
    let mut declined = Vec::new();
    let mut compared = 0;
    for app in apps::corpus() {
        let name = app.name;
        let p = compile(name, app.graph());
        let Some(reason) = differential(name, &p, app.prefix) else {
            compared += 1;
            continue;
        };
        assert!(
            !apps::THROUGHPUT_APPS.contains(&name),
            "{name} must run on the compiled engine, but it declined: {reason}"
        );
        declined.push((name, reason));
    }
    assert_eq!(compared + declined.len(), apps::corpus().len());
    // The engine is allowed to decline apps outside its subset, but a
    // sweeping regression (declining most of the suite) is a bug.
    eprintln!(
        "compiled engine declined {} of {} apps: {declined:#?}",
        declined.len(),
        apps::corpus().len()
    );
    assert!(
        declined.len() <= 7,
        "compiled engine declined too many apps: {declined:#?}"
    );
}

// ---- generator-based differential testing ------------------------------
//
// The random work-function IR generator from the static-analysis
// soundness suite produces bodies with branches, loops, peeks and local
// variables.  Whenever the interval analysis proves exact rates, the
// body becomes a legal filter; the compiled engine must then either
// decline it or agree with the interpreter bit-for-bit.

mod generated {
    use std::collections::HashMap;

    use streamit::analysis::analyze_block;
    use streamit::exec::ExecError;
    use streamit::graph::builder::FilterBuilder;
    use streamit::graph::{DataType, Stmt, StreamNode};
    use streamit::Compiler;

    use super::irgen::{gen_block, selected, Gen, Scope, Selected};
    use super::varied_input;

    /// Outcome of one generated case.
    pub(super) enum Case {
        /// Rates not statically exact (or graph invalid): nothing to compare.
        Skipped,
        /// Compiled engine declined the filter.
        Declined,
        /// Both engines ran and agreed; which of `irgen::SELECTED` the
        /// compared bytecode contained.
        Compared(Selected),
    }

    /// The body seed `seed` generates and the tape type it draws, with
    /// the `[peek, pop, push]` the interval analysis proves for it;
    /// `None` when the rates are not exact (or absurd).
    pub(super) fn generate(seed: u64) -> Option<(Vec<Stmt>, DataType, [usize; 3])> {
        let mut g = Gen(seed | 1);
        let mut sc = Scope::default();
        let block = gen_block(&mut g, &mut sc, 2);
        // Int and float tapes lower peeks and mixed arithmetic differently.
        let ty = if g.below(2) == 0 {
            DataType::Int
        } else {
            DataType::Float
        };

        // Only bodies with exact (point-interval) rates can be declared
        // conformant; everything else is covered by the decline path.
        let analysis = analyze_block(&block, &HashMap::new());
        let (Some(pop), Some(push), Some(need)) = (
            analysis.pops.as_constant(),
            analysis.pushes.as_constant(),
            analysis.need.as_constant(),
        ) else {
            return None;
        };
        if pop < 0 || push < 0 || need < 0 || push > 4096 || need > 4096 {
            return None;
        }
        let rates = [need.max(pop) as usize, pop as usize, push as usize];
        Some((block, ty, rates))
    }

    /// `block` as a filter named `gen` over `ty` tapes.
    pub(super) fn filter(
        block: &[Stmt],
        ty: DataType,
        [peek, pop, push]: [usize; 3],
    ) -> StreamNode {
        let body = block.to_vec();
        FilterBuilder::new("gen", ty)
            .rates(peek, pop, push)
            .work(move |b| body.into_iter().fold(b, |b, s| b.stmt(s)))
            .build_node()
    }

    pub(super) fn run_case(seed: u64) -> Case {
        let Some((block, ty, rates)) = generate(seed) else {
            return Case::Skipped;
        };
        let p = match Compiler::default().compile_stream(filter(&block, ty, rates)) {
            Ok(p) => p,
            Err(_) => return Case::Skipped,
        };
        let cg = match p.compile_exec() {
            Ok(cg) => cg,
            Err(ExecError::Unsupported { .. }) => return Case::Declined,
            Err(e) => panic!("seed {seed}: unexpected compile_exec error: {e}"),
        };

        // Three steady iterations' worth of output, bit-compared.
        let k = 3u64;
        let n = (cg.init_outputs() + k * cg.outputs_per_iteration()) as usize;
        let input = varied_input(cg.required_input(k) as usize);
        let compiled = cg
            .run_steady(&input, k)
            .unwrap_or_else(|e| panic!("seed {seed}: compiled run failed: {e}\n{block:#?}"));
        let mut reference = p
            .run(&input, n)
            .unwrap_or_else(|e| panic!("seed {seed}: reference run failed: {e}\n{block:#?}"));
        reference.truncate(n);
        let cb: Vec<u64> = compiled.iter().map(|v| v.to_bits()).collect();
        let rb: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            cb, rb,
            "seed {seed}: engines disagree\ncompiled:  {compiled:?}\nreference: {reference:?}\n{block:#?}"
        );
        let mut seen = Selected::default();
        for fc in &cg.plan().codes {
            for (s, hit) in seen.iter_mut().zip(selected(&fc.work.code)) {
                *s |= hit;
            }
        }
        Case::Compared(seen)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Differential property: every generated filter the compiled
        /// engine accepts produces bit-identical output to the reference
        /// interpreter.
        #[test]
        fn prop_generated_filters_agree(seed in 0u64..u64::MAX) {
            run_case(seed);
        }
    }
}

/// Non-vacuity guard for the proptest above: over a fixed seed sweep, a
/// healthy fraction of generated bodies must actually reach the
/// bit-compare path (exact rates, accepted by the compiled engine), and
/// every instruction the selection rules emit must be in the compared
/// bytecode of at least 5 % of the sweep.
#[test]
fn generated_sweep_compares_a_healthy_fraction() {
    const SWEEP: u64 = 512;
    let mut compared = 0usize;
    let mut declined = 0usize;
    let mut emitted = [0usize; irgen::SELECTED.len()];
    for seed in 0..SWEEP {
        match generated::run_case(seed) {
            generated::Case::Compared(seen) => {
                compared += 1;
                for (n, hit) in emitted.iter_mut().zip(seen) {
                    *n += hit as usize;
                }
            }
            generated::Case::Declined => declined += 1,
            generated::Case::Skipped => {}
        }
    }
    eprintln!("generated sweep: {compared} compared, {declined} declined, emitted {emitted:?}");
    assert!(
        compared >= 32,
        "only {compared} of {SWEEP} generated cases were bit-compared ({declined} declined) — \
         the differential property is near-vacuous"
    );
    for (name, n) in irgen::SELECTED.iter().zip(emitted) {
        assert!(
            n * 20 >= SWEEP as usize,
            "{name} was in the compared bytecode of only {n} of {SWEEP} cases — \
             its selection rule is outside the differential net"
        );
    }
}

// ---- execution scaling -------------------------------------------------
//
// A plan may run its steady state `K` iterations at a time (DESIGN.md
// "Execution scaling").  Bit-identity is Kahn determinism — a filter
// sees the same items and its own state whatever order filters are
// entered in — and is shown here rather than argued: the same schedule
// with and without its batch, by bits, on everything this suite can
// build.

mod metamorphic {
    use streamit::exec::driver::{preload, read_output, Driver, Schedule, Stop};
    use streamit::exec::{CompiledGraph, ExecError};
    use streamit::graph::builder::{lit, peek, pipeline, FilterBuilder};
    use streamit::graph::{DataType, StreamNode};

    use super::{compile, generated, varied_input};
    use streamit::apps;

    /// What `k` iterations driven through `s` leave behind: the output
    /// by bits, the driver's iteration count and `drive`'s own answer.
    fn driven(s: &Schedule<'_>, input: &[f64], k: u64) -> (Vec<u64>, u64, (u64, Stop)) {
        let shards = preload(s, input, k).expect("input covers the run");
        let mut d = Driver::new(shards, 0, "metamorphic", None, None);
        let stop = d.drive(s, k).expect("runs");
        let iterations = d.iterations();
        let out = read_output(&d.into_parts().0, s.ext_out).expect("float output tape");
        (out.iter().map(|v| v.to_bits()).collect(), iterations, stop)
    }

    /// `batch: Some(K)` == `batch: None` on run lengths either side of
    /// one, two and five batches.  Returns `K` (`None`: no batch, both
    /// sides are the unit stride and agree trivially).
    pub(super) fn strides_agree(name: &str, cg: &CompiledGraph) -> Option<u32> {
        let batched = cg.plan().schedule();
        let unit = Schedule {
            batch: None,
            ..batched
        };
        let factor = cg.batch_factor();
        let k = u64::from(factor.unwrap_or(1));
        for iters in [k - 1, k, k + 1, 2 * k + 3, 5 * k] {
            let input = varied_input(cg.required_input(iters) as usize);
            let (want, got) = (
                driven(&unit, &input, iters),
                driven(&batched, &input, iters),
            );
            assert_eq!(want.2, (iters, Stop::Budget), "{name}: {iters} iterations");
            assert!(
                want == got,
                "{name}: {iters} iterations at stride {factor:?} diverge from the unit stride"
            );
        }
        factor
    }

    /// `peek window pop 1 push 1`: behind a generated filter it puts a
    /// tape of `window` items into the plan, which is what the byte
    /// budget weighs.
    fn tail(ty: DataType, window: usize) -> StreamNode {
        FilterBuilder::new("tail", ty)
            .rates(window, 1, 1)
            .work(|b| b.push(peek(lit(window as i64 - 1))).pop_discard())
            .build_node()
    }

    #[test]
    fn batched_rounds_match_unit_rounds() {
        for app in apps::corpus() {
            let name = app.name;
            match compile(name, app.graph()).compile_exec() {
                Ok(cg) => eprintln!("{name}: stride {:?}", strides_agree(name, &cg)),
                Err(ExecError::Unsupported { .. }) => {}
                Err(e) => panic!("{name}: {e}"),
            }
        }

        // Every generated body on both tape types.  One seed in sixteen
        // gets a deep-peeking tail sized to cost it some or all of its
        // batch, so that the sweep sees every factor and the unit
        // stride on graphs that do have one.
        let mut factors = std::collections::BTreeMap::new();
        for seed in 0..512u64 {
            let Some((block, _, rates)) = generated::generate(seed) else {
                continue;
            };
            let window = match seed % 64 {
                0 => 20_000,
                1 => 12_000,
                2 => 6_000,
                3 => 3_000,
                w => 1 + w as usize % 5,
            };
            for ty in [DataType::Int, DataType::Float] {
                let gen = generated::filter(&block, ty, rates);
                // A body that pushes nothing cannot feed a tail.
                let stream = if rates[2] == 0 {
                    gen
                } else {
                    pipeline("p", vec![gen, tail(ty, window)])
                };
                let Ok(p) = streamit::Compiler::default().compile_stream(stream) else {
                    continue;
                };
                let Ok(cg) = p.compile_exec() else {
                    continue;
                };
                let factor = strides_agree(&format!("seed {seed} on {ty:?}"), &cg);
                *factors.entry(factor).or_insert(0usize) += 1;
            }
        }
        let accepted: usize = factors.values().sum();
        let unbatched = factors.get(&None).copied().unwrap_or(0);
        let batching = accepted - unbatched;
        eprintln!("generated: {accepted} accepted, strides {factors:?}");
        assert!(
            accepted >= 64,
            "only {accepted} generated cases were driven"
        );
        assert!(
            batching * 10 >= accepted * 9,
            "only {batching} of {accepted} generated cases batch: the scaled stride is barely tested"
        );
        assert!(
            unbatched >= 1,
            "every generated case batches: the fall-back to the unit stride is untested"
        );
    }

    /// A run preloads only the input its iterations read: given exactly
    /// `required_input(k)` items, or four times as many, every app emits
    /// the same bits on the compiled engine and on `parallel(2)`, over
    /// runs that take scaled rounds and a unit tail.
    #[test]
    fn an_exact_length_input_runs_like_a_longer_one() {
        let mut parallel = 0;
        for app in apps::corpus() {
            let name = app.name;
            let p = compile(name, app.graph());
            let Ok(cg) = p.compile_exec() else {
                continue;
            };
            let k = 2 * u64::from(cg.batch_factor().unwrap_or(1)) + 3;
            let bits = |out: Vec<f64>| out.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            // Exact and four times longer, by the engine's own count.
            let inputs = |required: u64| {
                let exact = varied_input(required as usize);
                let longer = varied_input(4 * exact.len().max(1));
                (exact, longer)
            };
            let (exact, longer) = inputs(cg.required_input(k));
            let run = |input: &[f64]| bits(cg.run_steady(input, k).expect("runs"));
            let want = run(&longer);
            assert_eq!(
                want.len() as u64,
                cg.init_outputs() + k * cg.outputs_per_iteration()
            );
            assert!(run(&exact) == want, "{name}: the exact input diverges");
            if let Ok(pg) = p.compile_parallel(2) {
                let (exact, longer) = inputs(pg.required_input(k));
                let run = |input: &[f64]| bits(pg.run_steady(input, k).expect("runs"));
                let want = run(&longer);
                assert_eq!(
                    want.len() as u64,
                    pg.init_outputs() + k * pg.outputs_per_iteration()
                );
                assert!(
                    run(&exact) == want,
                    "{name}: parallel(2) on the exact input"
                );
                parallel += 1;
            }
        }
        assert!(parallel >= 8, "only {parallel} apps ran on parallel(2)");
    }
}

// ---- lane-dot bodies ---------------------------------------------------
//
// A body that is one dot product and nothing else fires the firings of
// a batched op as independent sums side by side (DESIGN.md "Execution
// scaling").  Generated FIR shapes against the reference interpreter,
// the shapes that must not be recognized, and how many bodies the apps
// have of it.

mod lanes {
    use streamit::apps;
    use streamit::exec::bytecode::{lower_filter, FilterCode, Inst};
    use streamit::exec::engine::{fire, Frame, LaneBank};
    use streamit::exec::plan::Op;
    use streamit::exec::tape::Tape;
    use streamit::exec::CompiledGraph;
    use streamit::graph::builder::*;
    use streamit::graph::{DataType, StreamNode, Value};
    use streamit::{CompiledProgram, Compiler};

    use super::{compile, differential, tolerance};

    /// How many of `cg`'s filters have a lane-safe work body.
    fn lane_bodies(cg: &CompiledGraph) -> usize {
        cg.plan().codes.iter().filter(|c| c.work.lane_safe).count()
    }

    /// Splitmix64.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        /// A coefficient: mostly in [-1, 1) with every mantissa bit
        /// drawn, so that products round (a fused multiply-add would
        /// show), sometimes ±0 or a subnormal.
        fn coef(&mut self) -> f64 {
            match self.below(16) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MIN_POSITIVE / 16.0,
                _ => self.below(1 << 53) as f64 / (1u64 << 52) as f64 - 1.0,
            }
        }

        /// A tape item: mostly small, sometimes an edge of the type (the
        /// ends of `i64`; ±∞ and the one NaN this hardware's arithmetic
        /// makes, the only NaN two engines can agree on by bits).
        fn item(&mut self, t: &mut Tape) {
            let nan = std::hint::black_box(0.0f64) / std::hint::black_box(0.0);
            let fits = match t {
                Tape::I(_) => t.push_i(match self.below(16) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => -1,
                    _ => self.below(200) as i64 - 100,
                }),
                Tape::F(_) => t.push_f(match self.below(16) {
                    0 => nan,
                    1 => f64::NEG_INFINITY,
                    _ => self.coef() * 4.0,
                }),
            };
            fits.expect("fits");
        }
    }

    /// A tape of `ty` with room for `cap` items, its cursors `skew`
    /// slots in, holding `n` drawn items.
    fn drawn(g: &mut Gen, ty: DataType, cap: u64, skew: u64, n: usize) -> Tape {
        let mut t = Tape::with_capacity(ty, cap);
        for _ in 0..skew {
            t.push_i(0).expect("fits");
        }
        t.advance(skew);
        for _ in 0..n {
            g.item(&mut t);
        }
        t
    }

    fn bits(t: &Option<Tape>) -> Vec<u64> {
        match t {
            Some(Tape::F(r)) => r.to_vec().iter().map(|v| v.to_bits()).collect(),
            Some(Tape::I(r)) => r.to_vec().iter().map(|&v| v as u64).collect(),
            None => Vec::new(),
        }
    }

    /// `fc`'s work body fired as one op at every `times` of
    /// `engine::tests::lanes_match_vm` and at four ring skews, from
    /// drawn items: through the lanes, and with the lanes switched off
    /// (the scalar VM).  Tapes, frame registers and faults must agree
    /// by bits.  Returns the firings the lanes ran.
    fn lanes_are_the_vm(
        g: &mut Gen,
        what: &str,
        fc: &FilterCode,
        input: Option<DataType>,
        output: Option<DataType>,
    ) -> u64 {
        let mut vm = fc.clone();
        vm.work.lane_safe = false;
        let mut bank = LaneBank::default();
        let rates = fc.work.rates;
        for times in [1, 7, 8, 9, 16, 17] {
            let items = (rates.pop * (times - 1) + rates.window) as usize;
            let cap = (items as u64 + 1).next_power_of_two();
            let room = (rates.push * times).next_power_of_two();
            for skew in [0, 1, cap / 2 + 3, cap - 1] {
                let inp = input.map(|ty| drawn(g, ty, cap, skew % cap, items));
                let out = output.map(|ty| drawn(g, ty, room, skew % room, 0));
                let run = |fc: &FilterCode, bank: &mut LaneBank| {
                    let (mut fr, mut i, mut o) = (Frame::new(fc), inp.clone(), out.clone());
                    let res = fire(
                        &fc.work,
                        &mut fr,
                        i.as_mut(),
                        o.as_mut(),
                        times as u32,
                        bank,
                    );
                    let regs = fr.f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    (res, bits(&i), bits(&o), regs, fr.i)
                };
                let laned = run(fc, &mut bank);
                let scalar = run(&vm, &mut LaneBank::default());
                assert!(
                    laned == scalar,
                    "{what}: {} × {times} at skew {skew}",
                    fc.name
                );
            }
        }
        bank.laned
    }

    /// The (code, input type, output type) of every steady work op.
    fn work_sites(cg: &CompiledGraph) -> Vec<(usize, Option<DataType>, Option<DataType>)> {
        let plan = cg.plan();
        let ty = |l: Option<streamit::exec::plan::Loc>| {
            l.map(|l| plan.tapes[l.shard as usize][l.slot as usize].ty)
        };
        let sites = plan.pre_ops.iter().filter_map(|op| match op {
            Op::Work {
                code,
                input,
                output,
                prework: false,
                ..
            } => Some((*code as usize, ty(*input), ty(*output))),
            _ => None,
        });
        sites.collect()
    }

    /// Every lane body of every app and of every linear-suite graph runs
    /// in the lanes as on the VM, by bits, at every tested stride and
    /// skew; each app with lane bodies runs some of its firings laned.
    #[test]
    fn lanes_are_the_vm_on_every_app_and_linear_graph() {
        let g = &mut Gen(5);
        let apps = apps::corpus().iter().map(|a| (a.name, a.graph()));
        for (name, stream) in apps.chain(apps::linear_suite::linear_suite()) {
            let Ok(cg) = compile(name, stream).compile_exec() else {
                continue;
            };
            let mut laned = 0;
            for (code, input, output) in work_sites(&cg) {
                let fc = &cg.plan().codes[code];
                if fc.work.lane_safe {
                    laned += lanes_are_the_vm(g, name, fc, input, output);
                }
            }
            assert_eq!(laned > 0, lane_bodies(&cg) > 0, "{name}");
        }
    }

    /// Generated bodies — branches, data-dependent loops, peeks at loop
    /// variables, IEEE specials — forced through the lanes whether or
    /// not lowering marks them (none has state, so any group whose
    /// lanes agree may run laned): the lanes fall back wherever their
    /// branches diverge, and agree with the VM by bits everywhere.
    #[test]
    fn lanes_are_the_vm_on_generated_bodies() {
        use super::generated::{filter, generate};
        let g = &mut Gen(9);
        let (mut bodies, mut marked, mut laned, mut branching) = (0, 0, 0, 0);
        for seed in 0..400 {
            let Some((block, ty, rates)) = generate(seed) else {
                continue;
            };
            let Ok(p) = Compiler::default().compile_stream(filter(&block, ty, rates)) else {
                continue;
            };
            let Ok(cg) = p.compile_exec() else {
                continue;
            };
            for (code, input, output) in work_sites(&cg) {
                let mut fc = cg.plan().codes[code].clone();
                bodies += 1;
                marked += usize::from(fc.work.lane_safe);
                // Generated bodies hold no state and no array, so only a
                // data-dependent jump leaves one unmarked.
                let jz = fc.work.code.iter().any(|i| matches!(i, Inst::Jz { .. }));
                branching += usize::from(!fc.work.lane_safe && jz);
                fc.work.lane_safe = true;
                laned += usize::from(
                    lanes_are_the_vm(g, &format!("seed {seed}"), &fc, input, output) > 0,
                );
            }
        }
        eprintln!(
            "{bodies} generated bodies: {marked} marked, {laned} ran laned, \
             {branching} hold a data-dependent Jz"
        );
        assert!(
            bodies >= 100 && laned * 4 >= bodies && branching * 4 >= bodies,
            "{bodies} bodies, {laned} laned, {branching} branching"
        );
    }

    /// The edges of the scalar table through the lanes, against the
    /// reference interpreter: `abs(i64::MIN)`, `*` and `+` wrapping at
    /// ±2⁶³, and `-0.0` and NaN through `min` and `max`.
    #[test]
    fn edge_values_in_the_lanes_match_the_interpreter() {
        let int = FilterBuilder::new("edges", DataType::Int)
            .rates(1, 1, 4)
            .work(|b| {
                b.let_("x", DataType::Int, pop())
                    .push(abs(var("x")))
                    .push(var("x") * lit(3i64))
                    .push(var("x") + var("x"))
                    .push(minf(var("x"), lit(-1i64)) - lit(1i64))
            })
            .build_node();
        let float = FilterBuilder::new("edges", DataType::Float)
            .rates(2, 2, 4)
            .work(|b| {
                b.let_("a", DataType::Float, pop())
                    .let_("b", DataType::Float, pop())
                    .push(minf(var("a"), var("b")))
                    .push(maxf(var("a"), var("b")))
                    .push(minf(var("b"), var("a")))
                    .push(maxf(var("b"), var("a")))
            })
            .build_node();
        let nan = std::hint::black_box(0.0f64) / std::hint::black_box(0.0);
        let ints = [
            i64::MIN as f64,
            2f64.powi(62),
            -(2f64.powi(62)),
            -1.0,
            0.0,
            3.0,
        ];
        let floats = [
            -0.0,
            0.0,
            nan,
            1.5,
            0.0,
            -0.0,
            -0.0,
            nan,
            nan,
            nan,
            -1.0,
            f64::INFINITY,
        ];
        for (stream, items, per) in [(int, &ints[..], 1), (float, &floats[..], 2)] {
            let p: CompiledProgram = Compiler::default()
                .compile_stream(stream)
                .expect("compiles");
            let cg = p.compile_exec().expect("accepted");
            let fc = &cg.plan().codes[0];
            assert!(fc.work.lane_safe);
            // 64 firings, so that whole groups run laned.
            let input: Vec<f64> = items.iter().copied().cycle().take(64 * per).collect();
            let mut bank = LaneBank::default();
            let mut fr = Frame::new(fc);
            let ty = cg.plan().input_ty;
            let mut i = Tape::with_capacity(ty, input.len() as u64);
            i.extend_from_f64(&input);
            let mut o = Tape::with_capacity(DataType::Float, 256);
            fire(&fc.work, &mut fr, Some(&mut i), Some(&mut o), 64, &mut bank).expect("fires");
            assert_eq!(bank.laned, 64);
            let Tape::F(laned) = o else {
                panic!("the output is a float tape")
            };
            let reference = p.run(&input, 256).expect("interpreter runs");
            let what = format!("{ty:?} edges");
            tolerance::assert_streams_match(
                &what,
                tolerance::Tolerance::Bit,
                &laned.to_vec(),
                &reference,
            );
        }
    }

    /// `float s = acc0; s = s + peek(k)·c0; …; push(s)` `pushes` times,
    /// then `pop` discarded pops, over `ty` tapes.
    fn fir(g: &mut Gen, name: &str, ty: DataType, pushes: usize) -> StreamNode {
        let (n, k, pop) = (1 + g.below(80), g.below(4), 1 + g.below(3));
        let acc0 = if g.below(4) == 0 { -0.0 } else { g.coef() };
        let taps: Vec<f64> = (0..n).map(|_| g.coef()).collect();
        FilterBuilder::new(name, ty)
            .rates((k + n).max(pop) as usize, pop as usize, pushes)
            .work(move |b| {
                let b = b.let_("s", DataType::Float, lit(acc0));
                let b = taps.iter().enumerate().fold(b, |b, (t, &c)| {
                    b.set("s", var("s") + peek(lit(k as i64 + t as i64)) * lit(c))
                });
                let b = (0..pushes).fold(b, |b, _| b.push(var("s")));
                (0..pop).fold(b, |b, _| b.pop_discard())
            })
            .build_node()
    }

    fn program(stream: StreamNode) -> CompiledProgram {
        Compiler::default()
            .compile_stream(stream)
            .expect("compiles")
    }

    /// Two generated FIRs in a row: the second reads a channel tape,
    /// whose windows wrap, where the first reads the external input.
    /// Both are lane bodies, and the run, long enough for scaled
    /// rounds, agrees with the reference interpreter by bits.
    #[test]
    fn generated_fir_pipelines_agree_with_the_interpreter() {
        for seed in 0..48 {
            let g = &mut Gen(seed);
            let stream = pipeline(
                "p",
                vec![
                    fir(g, "a", DataType::Float, 1),
                    fir(g, "b", DataType::Float, 1),
                ],
            );
            let p = program(stream);
            let cg = p.compile_exec().expect("accepted");
            assert_eq!(lane_bodies(&cg), 2, "seed {seed}");
            assert!(cg.batch_factor().is_some(), "seed {seed}");
            assert_eq!(differential(&format!("seed {seed}"), &p, 96), None);
        }
    }

    /// The same bodies over int tapes, or pushing their sum twice, are
    /// lane bodies too; a body that writes its state is not, and one
    /// that sends a message is not lowered at all.  All agree with the
    /// interpreter.
    #[test]
    fn stateful_and_send_bodies_are_not_lane_bodies() {
        for seed in 0..16 {
            let g = &mut Gen(seed);
            for (ty, pushes) in [(DataType::Int, 1), (DataType::Float, 2)] {
                let p = program(fir(g, "f", ty, pushes));
                let cg = p.compile_exec().expect("accepted");
                assert_eq!(lane_bodies(&cg), 1, "seed {seed}: {ty:?}, {pushes} pushes");
                assert_eq!(differential(&format!("seed {seed}"), &p, 64), None);
            }
        }
        let counter = FilterBuilder::new("count", DataType::Int)
            .rates(1, 1, 1)
            .state("n", DataType::Int, Value::Int(0))
            .work(|b| b.set("n", var("n") + pop()).push(var("n")))
            .build_node();
        let p = program(counter);
        assert_eq!(lane_bodies(&p.compile_exec().expect("accepted")), 0);
        assert_eq!(differential("counter", &p, 64), None);
        let send = FilterBuilder::new("send", DataType::Float)
            .rates(1, 1, 1)
            .work(|b| b.send("p", "h", vec![], (0, 0)).push(pop()))
            .build();
        let float = Some(DataType::Float);
        assert!(lower_filter(&send, "send", float, float).is_err());
    }

    /// The lane path is where the apps' stateless bodies run: every body
    /// of `fmradio(10, 64)` and `filterbank(8, 32)`, and every bank of
    /// comparators and permutation of `bitonic_sort(32)` (fifteen stages
    /// of a gather, one fused bank of sixteen comparators and a
    /// scatter), as (lane bodies, bodies).
    #[test]
    fn benchmark_apps_have_their_lane_bodies() {
        let count = |name, stream| {
            let cg = compile(name, stream).compile_exec().expect("accepted");
            (lane_bodies(&cg), cg.plan().codes.len())
        };
        assert_eq!(count("fmradio", apps::fmradio::fmradio(10, 64)), (23, 23));
        assert_eq!(
            count("filterbank", apps::filterbank::filterbank(8, 32)),
            (33, 33)
        );
        assert_eq!(count("bitonic", apps::bitonic::bitonic_sort(32)), (45, 45));
    }
}

// ---- fault parity ------------------------------------------------------
//
// The static-analysis gate refuses any body that could peek outside its
// declared window, so the VM's own tape checks are the net *behind* the
// gate.  These goldens bypass the gate — a well-formed filter is
// compiled, then its bytecode is swapped for an out-of-contract body
// with the same declared rates — and pin the fault each selected
// instruction raises to the one the generic instructions always raised.

mod faults {
    use streamit::exec::bytecode::{lower_filter, Inst};
    use streamit::exec::driver::{preload, read_output, Driver, Schedule, Stop};
    use streamit::exec::{CompiledGraph, ExecError, FaultPlan};
    use streamit::graph::builder::*;
    use streamit::graph::{DataType, FlatGraph};

    /// Declared `peek 4 pop 1 push 1`, float to float.
    fn filter(work: impl FnOnce(BlockBuilder) -> BlockBuilder) -> FilterBuilder {
        FilterBuilder::new("f", DataType::Float)
            .rates(4, 1, 1)
            .work(work)
    }

    /// The fault `work` raises on the second of two steady iterations,
    /// when exactly the declared four-item window is left on the tape,
    /// and the bytecode that raised it.
    fn fault_of(work: impl FnOnce(BlockBuilder) -> BlockBuilder) -> (ExecError, Vec<Inst>) {
        let legit = filter(|b| b.push(peek(lit(3i64))).pop_discard()).build_node();
        let cg = CompiledGraph::compile(&FlatGraph::from_stream(&legit), None)
            .expect("the well-formed filter compiles");
        let mut plan = cg.plan().clone();
        let float = Some(DataType::Float);
        plan.codes[0] =
            lower_filter(&filter(work).build(), "f", float, float).expect("body lowers");
        let code = plan.codes[0].work.code.clone();
        let s = plan.schedule();
        let input = vec![1.0; s.stats.required_input(2) as usize];
        assert_eq!(input.len(), 5);
        let shards = preload(&s, &input, 2).expect("input suffices");
        let err = Driver::new(shards, 0, "golden", None, None)
            .drive(&s, 2)
            .expect_err("the out-of-window peek must fault");
        (err, code)
    }

    fn fault(reason: &str) -> ExecError {
        ExecError::Fault {
            node: "f".into(),
            reason: reason.into(),
        }
    }

    #[test]
    fn literal_peek_at_and_after_the_window_faults_like_the_generic_peek() {
        for k in [4i64, 9] {
            let (err, code) = fault_of(|b| b.push(peek(lit(k))).pop_discard());
            assert!(matches!(code[0], Inst::PeekFK { .. }), "{code:?}");
            assert_eq!(err, fault("peek beyond available input"), "peek({k})");
        }
    }

    #[test]
    fn negative_literal_peek_stays_generic_and_names_the_index() {
        let (err, code) = fault_of(|b| b.push(peek(lit(-1i64))).pop_discard());
        assert!(matches!(code[1], Inst::PeekF { .. }), "{code:?}");
        assert_eq!(err, fault("peek at negative index -1"));
    }

    #[test]
    fn dot_product_crossing_the_end_of_input_faults_like_its_first_absent_tap() {
        let (err, code) = fault_of(|b| {
            let b = b.let_("s", DataType::Float, lit(0.0));
            (2..6i64)
                .fold(b, |b, k| b.set("s", var("s") + peek(lit(k)) * lit(0.5)))
                .push(var("s"))
                .pop_discard()
        });
        assert!(
            code.iter()
                .any(|i| matches!(i, Inst::DotPeekF { k: 2, n: 4, .. })),
            "{code:?}"
        );
        assert_eq!(err, fault("peek beyond available input"));
    }

    #[test]
    fn skip_crossing_the_end_of_input_faults_like_its_first_empty_pop() {
        let (err, code) =
            fault_of(|b| (0..6).fold(b.push(peek(lit(0i64))), |b, _| b.pop_discard()));
        assert!(matches!(code[..], [_, _, Inst::Skip { n: 6 }]), "{code:?}");
        assert_eq!(err, fault("pop from empty tape"));
    }

    #[test]
    fn instructions_stay_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Inst>(), 16);
    }

    /// `id` into `div`, which divides by what it pops, on int tapes.
    fn dividing_pipeline() -> CompiledGraph {
        let id = FilterBuilder::new("id", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| b.push(pop()))
            .build_node();
        let div = FilterBuilder::new("div", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| b.push(lit(1000i64) / pop()))
            .build_node();
        let g = FlatGraph::from_stream(&pipeline("p", vec![id, div]));
        let cg = CompiledGraph::compile(&g, Some(DataType::Int)).expect("compiles");
        assert_eq!(cg.batch_factor(), Some(16));
        cg
    }

    /// A scaled round enters `id` sixteen times before `div` once, so
    /// the zero that iteration 20 pops is met in a different order of
    /// *entries* — and is the same fault, from the same filter.
    #[test]
    fn a_fault_inside_a_batch_is_the_fault_of_the_unit_stride() {
        let cg = dividing_pipeline();
        let batched = cg.plan().schedule();
        let unit = Schedule {
            batch: None,
            ..batched
        };
        let mut input = vec![7.0; 40];
        input[20] = 0.0;
        let fault_of = |s: &Schedule<'_>| {
            let shards = preload(s, &input, 40).expect("input suffices");
            Driver::new(shards, 0, "golden", None, None)
                .drive(s, 40)
                .expect_err("division by zero must fault")
        };
        let want = ExecError::Fault {
            node: "p/div".into(),
            reason: "division by zero".into(),
        };
        assert_eq!(fault_of(&unit), want);
        assert_eq!(fault_of(&batched), want);
    }

    /// An armed fault plan caps the stride, it does not drop it: at
    /// `k = 16` the driver runs `0..16` as one scaled round, `16` alone
    /// (a round from 16 would straddle 17), then a round starts at 17.
    /// The panic fires there and names 17 (not the batch boundary
    /// before or after it) after one scaled round; a delay there sleeps
    /// after the scaled round `17..33`, changes no output bit, and the
    /// run counts two scaled rounds.
    #[test]
    fn an_armed_fault_plan_fires_at_its_own_iteration_of_a_batching_graph() {
        let cg = dividing_pipeline();
        let s = cg.plan().schedule();
        let input = vec![7.0; 40];
        let driver = |f: &str, delay_ms| {
            let mut fault: FaultPlan = f.parse().expect("parses");
            fault.delay_ms = delay_ms;
            let shards = preload(&s, &input, 40).expect("input suffices");
            Driver::new(shards, 0, "serial engine", Some(fault), None)
        };
        let mut panicking = driver("panic@0:17", 0);
        match panicking.drive(&s, 40) {
            Err(ExecError::WorkerPanic { payload, .. }) => {
                assert!(payload.ends_with("stage 0 iteration 17"), "{payload}")
            }
            other => panic!("expected a worker panic, got {other:?}"),
        }
        assert_eq!(panicking.scaled_rounds(), 1);
        let mut delayed = driver("delay@0:17", 1);
        assert_eq!(delayed.drive(&s, 40), Ok((40, Stop::Budget)));
        assert_eq!(delayed.scaled_rounds(), 2);
        let delayed = read_output(&delayed.into_parts().0, s.ext_out).expect("reads");
        let clean = cg.run_steady(&input, 40).expect("runs");
        assert_eq!(clean, vec![142.0; 40]);
        assert_eq!(delayed, clean);
    }
}

// ---- performance-cliff guards -------------------------------------------
//
// The VM's speed on the benchmark apps rests on two things staying
// true: the mid-end unrolls and folds their tap loops, and the lowering
// selects the fused instructions for what comes out.  Either one
// silently regressing costs 4x and no output changes, so the
// instruction counts themselves are pinned.

mod cliffs {
    use streamit::apps;
    use streamit::exec::bytecode::Inst;
    use streamit::exec::plan::BATCH_TAPE_BYTES;
    use streamit::exec::CompiledGraph;
    use streamit::linear::LinearMode;
    use streamit::{Compiler, Options};

    use super::metamorphic::strides_agree;
    use super::{compile, differential};

    /// `(name, work-body length)` of every filter whose name has `part`.
    fn body_lengths(p: &streamit::CompiledProgram, part: &str) -> Vec<(String, usize)> {
        let cg = p.compile_exec().expect("app compiles");
        cg.plan()
            .codes
            .iter()
            .filter(|fc| fc.name.contains(part))
            .map(|fc| (fc.name.clone(), fc.work.code.len()))
            .collect()
    }

    #[test]
    fn fmradio_fir_bodies_stay_one_dot_product() {
        let p = compile("fmradio", apps::fmradio::fmradio(10, 64));
        let firs: Vec<_> = ["LowPass", "BPF"]
            .iter()
            .flat_map(|part| body_lengths(&p, part))
            .collect();
        assert_eq!(firs.len(), 11, "{firs:?}");
        for (name, len) in firs {
            assert!(
                len <= 8,
                "{name}: a 64-tap FIR lowered to {len} instructions"
            );
        }
    }

    /// Each stage's comparators run as one fused bank (DESIGN.md
    /// "Horizontal fusion"), whose body is its comparators' bodies one
    /// after another: still ten instructions a comparator.
    #[test]
    fn bitonic_comparators_stay_ten_instructions() {
        let p = compile("bitonic", apps::bitonic::bitonic_sort(32));
        let banks = body_lengths(&p, "/cmp_");
        assert_eq!(banks.len(), 15, "{banks:?}");
        for (name, len) in banks {
            let fused = p.fusion_report().iter().find(|r| r.name == name);
            let cmps = fused.expect("a fused bank").branches.len();
            assert_eq!(cmps, 16, "{name}");
            assert!(
                len <= 10 * cmps,
                "{name}: {cmps} comparators lowered to {len} instructions"
            );
        }
    }

    /// `Steer` runs two loops over one variable name (`for c` taps,
    /// then `for c` pops): both must unroll, the taps into one dot
    /// product and the pops into one `Skip`.  Left rolled it was 132
    /// dispatches a firing and measured hotter than a 32-tap FIR.
    #[test]
    fn beamformer_steering_filters_stay_one_dot_product_and_one_skip() {
        let p = compile("beamformer", apps::beamformer::beamformer(12, 4, 32));
        let steers = body_lengths(&p, "/Steer");
        assert_eq!(steers.len(), 4, "{steers:?}");
        for (name, len) in steers {
            assert!(len <= 6, "{name}: lowered to {len} instructions");
        }
    }

    /// Past the optimizer's unroll limit the tap loop stays rolled, so
    /// no selection rule applies to its body (the index is the loop
    /// variable, the coefficient an array element): the generic path
    /// must still agree with the interpreter bit for bit.
    #[test]
    fn fir_past_the_unroll_limit_stays_rolled_and_bit_identical() {
        let p = compile("fir257", apps::common::lowpass_fir("fir257", 257, 0.25));
        let cg = p.compile_exec().expect("compiles");
        let code = &cg.plan().codes[0].work.code;
        assert!(
            code.iter().any(|i| matches!(i, Inst::Jmp { .. }))
                && !code.iter().any(|i| matches!(i, Inst::DotPeekF { .. })),
            "{code:?}"
        );
        assert_eq!(differential("fir257", &p, 16), None);
    }

    /// Bytes of channel tape `cg` holds at its batch capacities.
    fn batch_tape_bytes(cg: &CompiledGraph) -> u64 {
        let batch = cg.plan().batch.as_ref().expect("the plan batches");
        8 * batch.caps.iter().flatten().sum::<u64>()
    }

    /// The stride is the other half of the VM's speed (`fir-vm` 2.3x,
    /// `sort-dispatch` 1.8x), and a plan that stops batching changes no
    /// output: the factors the benchmark apps get are pinned, each
    /// inside the byte budget that chose it.
    #[test]
    fn benchmark_apps_keep_their_batch_factors() {
        let accepted = |name: &str, stream| {
            let cg = compile(name, stream).compile_exec().expect("accepted");
            assert!(batch_tape_bytes(&cg) <= BATCH_TAPE_BYTES, "{name}");
            cg
        };
        let fmradio = accepted("fmradio", apps::fmradio::fmradio(10, 64));
        assert_eq!(fmradio.batch_factor(), Some(16));
        // Fused comparator banks leave 44 channel tapes where there were
        // 524: sixteen-fold fits the budget.
        let bitonic = accepted("bitonic", apps::bitonic::bitonic_sort(32));
        assert_eq!(bitonic.batch_factor(), Some(16));
        let filterbank = accepted("filterbank", apps::filterbank::filterbank(8, 32));
        assert_eq!(filterbank.batch_factor(), Some(16));
        let beamformer = accepted("beamformer", apps::beamformer::beamformer(12, 4, 32));
        assert!(beamformer.batch_factor() >= Some(4));
    }

    /// The `fir-kernel` graph: frequency translation makes block
    /// filters with FFT-sized tapes, so the budget, not the largest
    /// factor, decides — and is never exceeded.
    #[test]
    fn frequency_translated_fmradio_batches_inside_the_budget() {
        let options = Options {
            linear: Some(LinearMode::Frequency),
            ..Options::default()
        };
        let p = Compiler::new(options)
            .compile_stream(apps::fmradio::fmradio(10, 64))
            .expect("compiles");
        let cg = p.compile_exec().expect("accepted");
        assert!(cg.kernel_filters() > 0);
        let unit_bytes = 8 * cg.plan().tapes.iter().flatten().map(|t| t.cap).sum::<u64>();
        eprintln!(
            "{unit_bytes} B of unit tapes: stride {:?}",
            cg.batch_factor()
        );
        match cg.batch_factor() {
            Some(k) => {
                assert!(unit_bytes * u64::from(k) <= BATCH_TAPE_BYTES, "stride {k}");
                assert!(batch_tape_bytes(&cg) <= BATCH_TAPE_BYTES, "stride {k}");
            }
            None => assert!(
                unit_bytes * 2 > BATCH_TAPE_BYTES,
                "{unit_bytes} B unbatched"
            ),
        }
        strides_agree("fmradio under frequency translation", &cg);
    }

    fn compile_text(name: &str, source: &str) -> streamit::CompiledProgram {
        Compiler::default()
            .compile_source(source, "Main")
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    /// Two enqueued items, one still on the loop edge at the snapshot,
    /// and the joiner's second firing of a scaled round wants it: the
    /// simulation refuses every factor, and the program stays accepted
    /// and bit-identical at the unit stride.
    #[test]
    fn fibonacci_feedback_loop_is_accepted_at_the_unit_stride_only() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/str/fibonacci.str"
        );
        let source = std::fs::read_to_string(path).expect("example is readable");
        let p = compile_text("fibonacci", &source);
        let cg = p.compile_exec().expect("accepted");
        assert_eq!(cg.batch_factor(), None);
        assert_eq!(differential("fibonacci", &p, 40), None);
        let out = cg.run_collect(&[], 10).expect("runs");
        assert_eq!(out, [1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0]);
    }

    /// `compile-corpus`'s feedback-loop template (an echo whose loop
    /// path is `stages` gains, primed with `stages` enqueued items) at
    /// its eight sizes.  Batching is tried after the unit plan is
    /// proved and can only add to it: all eight stay accepted, as
    /// before there was a batch, with the stride their items pay for.
    #[test]
    fn corpus_feedback_loops_are_all_still_accepted() {
        let mut strides = Vec::new();
        for stages in 1..=8usize {
            let gains = "    add Gain(0.9);\n".repeat(stages);
            let enqueued = "    enqueue 0.5;\n".repeat(stages);
            let source = format!(
                "float->float filter Mix(float a) {{
                    work pop 2 push 1 {{ float x = pop(); float fb = pop(); push(x + a * fb); }}
                }}
                float->float filter Gain(float g) {{ work pop 1 push 1 {{ push(pop() * g); }} }}
                float->float pipeline LoopPath() {{\n{gains}}}
                float->float feedbackloop Main() {{
                    join roundrobin(1, 1);
                    body Mix(0.5);
                    split duplicate;
                    loop LoopPath();\n{enqueued}}}"
            );
            let name = format!("feedback loop of {stages}");
            let p = compile_text(&name, &source);
            let cg = p
                .compile_exec()
                .unwrap_or_else(|e| panic!("{name}: accepted before batching, now {e}"));
            assert_eq!(differential(&name, &p, 64), None);
            strides.push(strides_agree(&name, &cg));
            // A loop of `stages` items cannot pay for a longer stride.
            assert!(
                strides[stages - 1].unwrap_or(1) as usize <= stages,
                "{name}"
            );
        }
        eprintln!("feedback-loop strides: {strides:?}");
        assert_eq!(strides[0], None);
    }
}
