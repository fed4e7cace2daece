//! Static deadlock and overflow detection (§"Program Verification").
//!
//! * **Overflow** — a buffer grows without bound during steady state.
//!   The paper's two cases (feedback loop with net rate change; split-join
//!   branches with diverging production rates) are both instances of
//!   *rate inconsistency*, detected exactly by the balance equations:
//!   [`streamit_graph::repetition_vector`] fails on the offending edge.
//! * **Deadlock** — rates are consistent but a feedback loop is primed
//!   with too few initial items for one steady state to complete.  We
//!   check by greedy counting simulation of one steady state with
//!   infinite external input: if the simulation stalls before every node
//!   reaches its repetition count, the stalled nodes are reported.

use streamit_graph::{repetition_vector, FlatGraph, SteadyError};

/// The result of graph verification.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Human-readable overflow findings (empty = no overflow).
    pub overflows: Vec<String>,
    /// Human-readable deadlock findings (empty = no deadlock).
    pub deadlocks: Vec<String>,
    /// The repetition vector, when rates are consistent.
    pub reps: Option<Vec<u64>>,
}

impl VerifyReport {
    /// `true` when the program is free of deadlock and overflow.
    pub fn is_ok(&self) -> bool {
        self.overflows.is_empty() && self.deadlocks.is_empty()
    }
}

/// Verify a flat graph for deadlock and overflow.
pub fn verify_graph(g: &FlatGraph) -> VerifyReport {
    verify_with(g, greedy_firings)
}

/// [`verify_graph`], the greedy run's firing counts from `greedy`.
fn verify_with(g: &FlatGraph, greedy: fn(&FlatGraph, &[u64]) -> Vec<u64>) -> VerifyReport {
    let reps = match repetition_vector(g) {
        Ok(r) => r,
        Err(SteadyError::Inconsistent { edge }) => {
            let e = g.edge(edge);
            let detail = format!(
                "buffer on channel {} ({} -> {}) grows without bound: \
                 production and consumption rates are inconsistent",
                edge,
                g.node(e.src).name,
                g.node(e.dst).name
            );
            return VerifyReport {
                overflows: vec![detail],
                deadlocks: Vec::new(),
                reps: None,
            };
        }
        Err(e @ (SteadyError::TooLarge | SteadyError::Internal { .. })) => {
            return VerifyReport {
                overflows: vec![e.to_string()],
                deadlocks: Vec::new(),
                reps: None,
            };
        }
    };

    // Greedy counting run.  External inputs (nodes with no in-edges)
    // are infinite.  Starting from empty tapes, peeking filters need an
    // *initialization* phase before the first steady state, so each
    // node may fire up to `reps * (init_rounds + 2)` times; the program
    // deadlocks iff the greedy run stalls with some node short of even
    // one steady state.
    let flows = streamit_graph::steady_flows(g, &reps);
    // Margins compound along chains of peeking filters (each stage must
    // overfill before the next sees its first window), so sum them.
    let mut init_rounds: u64 = 1;
    for e in &g.edges {
        let extra = g.peek_extra(e.dst);
        if extra > 0 && flows[e.id.0] > 0 {
            init_rounds = init_rounds.saturating_add(extra.div_ceil(flows[e.id.0]));
        }
    }
    let cap: Vec<u64> = reps
        .iter()
        .map(|&r| r.saturating_mul(init_rounds.saturating_add(2)))
        .collect();

    // The firings the run may make are bounded: hostile rate literals
    // can make the repetition vector astronomically large, and a steady
    // state needing millions of firings also needs buffers of that
    // order — unschedulable in practice, so an overflow finding is the
    // honest verdict.
    let total_cap = cap.iter().fold(0u64, |a, &b| a.saturating_add(b));
    if total_cap > VERIFY_BUDGET {
        return VerifyReport {
            overflows: vec![format!(
                "steady state too large to verify: {total_cap} firings per \
                 steady state exceeds the verification budget ({VERIFY_BUDGET})"
            )],
            deadlocks: Vec::new(),
            reps: Some(reps),
        };
    }
    let fired = greedy(g, &cap);

    let mut deadlocks = Vec::new();
    for n in &g.nodes {
        if fired[n.id.0] < reps[n.id.0] {
            // Only report nodes involved in feedback (others are starved
            // transitively; pointing at the loop is more useful).
            let in_loop = n.inputs.iter().any(|&e| g.edge(e).is_back_edge)
                || n.outputs.iter().any(|&e| g.edge(e).is_back_edge);
            deadlocks.push(format!(
                "{} fired {} of {} times{}",
                n.name,
                fired[n.id.0],
                reps[n.id.0],
                if in_loop {
                    " (feedback loop under-primed: increase delay/initPath items)"
                } else {
                    ""
                }
            ));
        }
    }

    VerifyReport {
        overflows: Vec::new(),
        deadlocks,
        reps: Some(reps),
    }
}

/// Firings the greedy run may make per steady state, all nodes together.
const VERIFY_BUDGET: u64 = 2_000_000;

/// The greedy run: sweep the nodes in order, each firing as often as its
/// windows and its `cap` allow, until a sweep fires nothing; returns each
/// node's firings.  A node fires in one step as many times as firing one
/// at a time would: its inputs only shrink while it fires (no edge both
/// leaves and enters one node), and the `j`-th firing needs
/// `need + j·pop` items on each input.
fn greedy_firings(g: &FlatGraph, cap: &[u64]) -> Vec<u64> {
    // Per node, read once: `(edge, items the first firing needs, items
    // each pops)` per input and `(edge, items each pushes)` per output.
    #[allow(clippy::type_complexity)]
    let io: Vec<(Vec<(usize, u64, u64)>, Vec<(usize, u64)>)> = g
        .nodes
        .iter()
        .map(|n| {
            let extra = g.peek_extra(n.id);
            let ins = (n.inputs.iter().zip(g.consumption_rates(n.id)).enumerate())
                .map(|(p, (e, pop))| (e.0, pop + if p == 0 { extra } else { 0 }, pop))
                .collect();
            let outs = n.outputs.iter().map(|e| e.0);
            (ins, outs.zip(g.production_rates(n.id)).collect())
        })
        .collect();
    let mut avail: Vec<u64> = g.edges.iter().map(|e| e.initial.len() as u64).collect();
    let mut fired = vec![0u64; g.nodes.len()];
    let mut progress = true;
    while progress {
        progress = false;
        for (n, (ins, outs)) in io.iter().enumerate() {
            let k = ins.iter().fold(cap[n] - fired[n], |k, &(e, need, pop)| {
                match avail[e].checked_sub(need) {
                    None => 0,
                    Some(_) if pop == 0 => k,
                    Some(left) => k.min(left / pop + 1),
                }
            });
            if k == 0 {
                continue;
            }
            for &(e, _, pop) in ins {
                avail[e] -= k * pop;
            }
            for &(e, push) in outs {
                avail[e] += k * push;
            }
            fired[n] += k;
            progress = true;
        }
    }
    fired
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::{DataType, FlatGraph, Joiner, Splitter, StreamNode, Value};

    fn adder() -> StreamNode {
        FilterBuilder::new("adder", DataType::Int)
            .rates(2, 1, 1)
            .push(peek(0) + peek(1))
            .pop_discard()
            .build_node()
    }

    fn fib_loop(delay: usize) -> StreamNode {
        feedback_loop(
            "fib",
            Joiner::RoundRobin(vec![0, 1]),
            adder(),
            Splitter::Duplicate,
            identity("lb", DataType::Int),
            delay,
            |i| Value::Int(i as i64),
        )
    }

    #[test]
    fn well_formed_loop_verifies() {
        let g = FlatGraph::from_stream(&fib_loop(2));
        let r = verify_graph(&g);
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn underprimed_loop_deadlocks() {
        // The adder needs peek 2; with only 1 initial item the loop can
        // never fire.
        let g = FlatGraph::from_stream(&fib_loop(1));
        let r = verify_graph(&g);
        assert!(!r.deadlocks.is_empty(), "{r:?}");
        assert!(r.overflows.is_empty());
        assert!(r.deadlocks.iter().any(|d| d.contains("under-primed")));
    }

    #[test]
    fn zero_delay_loop_deadlocks() {
        let g = FlatGraph::from_stream(&fib_loop(0));
        let r = verify_graph(&g);
        assert!(!r.deadlocks.is_empty());
    }

    #[test]
    fn rate_inconsistent_splitjoin_overflows() {
        let doubler = FilterBuilder::new("dbl", DataType::Int)
            .rates(1, 1, 2)
            .push(peek(0))
            .push(peek(0))
            .pop_discard()
            .build_node();
        let sj = splitjoin(
            "sj",
            Splitter::round_robin(2),
            vec![identity("a", DataType::Int), doubler],
            Joiner::round_robin(2),
        );
        let g = FlatGraph::from_stream(&sj);
        let r = verify_graph(&g);
        assert!(!r.overflows.is_empty(), "{r:?}");
        assert!(r.overflows[0].contains("grows without bound"));
    }

    #[test]
    fn feedback_loop_with_net_gain_overflows() {
        // The paper's first overflow case: maxloop(x) > x + λ — the loop
        // returns more items per round than the joiner re-consumes
        // (doubling body behind a duplicate splitter), so the loop
        // channel grows without bound.
        let fl2 = feedback_loop(
            "gain2",
            Joiner::RoundRobin(vec![0, 1]),
            FilterBuilder::new("dbl2", DataType::Int)
                .rates(1, 1, 2)
                .push(peek(0))
                .push(peek(0))
                .pop_discard()
                .build_node(),
            Splitter::Duplicate,
            identity("lb2", DataType::Int),
            1,
            |_| Value::Int(0),
        );
        let g2 = FlatGraph::from_stream(&fl2);
        let r2 = verify_graph(&g2);
        assert!(
            !r2.overflows.is_empty(),
            "net-gain loop must overflow: {r2:?}"
        );
    }

    #[test]
    fn clean_pipeline_reports_reps() {
        let g = FlatGraph::from_stream(&pipeline(
            "p",
            vec![identity("a", DataType::Int), identity("b", DataType::Int)],
        ));
        let r = verify_graph(&g);
        assert!(r.is_ok());
        assert_eq!(r.reps, Some(vec![1, 1]));
    }

    #[test]
    fn peeking_pipeline_is_not_deadlock() {
        // Peeking needs extra priming from upstream but upstream is
        // infinite: must verify clean.
        let g = FlatGraph::from_stream(&pipeline("p", vec![identity("a", DataType::Int), adder()]));
        let r = verify_graph(&g);
        assert!(r.is_ok(), "{r:?}");
    }

    /// The greedy run one firing at a time, as it ran before firings
    /// were counted in bulk: the oracle [`greedy_firings`] is held to.
    fn greedy_one_firing_at_a_time(g: &FlatGraph, cap: &[u64]) -> Vec<u64> {
        let mut avail: Vec<u64> = g.edges.iter().map(|e| e.initial.len() as u64).collect();
        let mut fired = vec![0u64; g.nodes.len()];
        let mut progress = true;
        while progress {
            progress = false;
            for n in &g.nodes {
                while fired[n.id.0] < cap[n.id.0] {
                    let conss = g.consumption_rates(n.id);
                    let extra = g.peek_extra(n.id);
                    let can = n.inputs.iter().enumerate().all(|(p, &e)| {
                        let need = conss[p] + if p == 0 { extra } else { 0 };
                        avail[e.0] >= need
                    });
                    if !can {
                        break;
                    }
                    for (p, &e) in n.inputs.iter().enumerate() {
                        avail[e.0] -= conss[p];
                    }
                    let prods = g.production_rates(n.id);
                    for (p, &e) in n.outputs.iter().enumerate() {
                        avail[e.0] += prods[p];
                    }
                    fired[n.id.0] += 1;
                    progress = true;
                }
            }
        }
        fired
    }

    /// `stream`'s report, checked equal to the per-firing run's; returns
    /// it.
    fn bulk_like_per_firing(what: &str, stream: &StreamNode) -> VerifyReport {
        let g = FlatGraph::from_stream(stream);
        let bulk = verify_graph(&g);
        assert_eq!(bulk, verify_with(&g, greedy_one_firing_at_a_time), "{what}");
        bulk
    }

    /// A filter of the given rates (verification reads only rates).
    fn rated(name: &str, peek: usize, pop: usize, push: usize) -> StreamNode {
        FilterBuilder::new(name, DataType::Float)
            .rates(peek, pop, push)
            .build_node()
    }

    /// A random graph: filters of rate 1–3 with up to two items of peek
    /// surplus (one in six changing the rate, so some graphs are
    /// inconsistent), pipelines, round-robin and duplicate split-joins,
    /// and feedback loops primed with zero to eight items, so some
    /// deadlock.
    fn generated(g: &mut proptest::rng::Rng, depth: u32) -> StreamNode {
        match if depth == 0 { 0 } else { g.below(4) } {
            0 => {
                let pop = 1 + g.below(3) as usize;
                let push = if g.below(6) == 0 { 1 + g.below(3) as usize } else { pop };
                rated("f", pop + g.below(3) as usize, pop, push)
            }
            1 => {
                let n = 2 + g.below(3);
                pipeline("p", (0..n).map(|_| generated(g, depth - 1)).collect())
            }
            2 => {
                let n = 2 + g.below(3);
                let branches = (0..n).map(|_| generated(g, depth - 1)).collect();
                let (s, j) = if g.below(2) == 0 {
                    (Splitter::Duplicate, Joiner::round_robin(n as usize))
                } else {
                    let w: Vec<u64> = (0..n).map(|_| 1 + g.below(2)).collect();
                    (Splitter::RoundRobin(w.clone()), Joiner::RoundRobin(w))
                };
                splitjoin("sj", s, branches, j)
            }
            _ => {
                let (a, b) = (1 + g.below(2), 1 + g.below(2));
                feedback_loop(
                    "fb",
                    Joiner::RoundRobin(vec![a, b]),
                    generated(g, 0),
                    Splitter::RoundRobin(vec![a, b]),
                    generated(g, 0),
                    g.below(9) as usize,
                    |i| Value::Float(i as f64),
                )
            }
        }
    }

    #[test]
    fn bulk_greedy_run_is_the_per_firing_run() {
        let mut streams: Vec<(String, StreamNode)> = Vec::new();
        for app in streamit_apps::corpus() {
            let stream = app.graph();
            for mode in [
                streamit_linear::LinearMode::Replacement,
                streamit_linear::LinearMode::Frequency,
            ] {
                let (optimized, _) = streamit_linear::optimize_stream(&stream, mode);
                streams.push((format!("{} {mode:?}", app.name), optimized));
            }
            streams.push((app.name.to_string(), stream));
        }
        for (name, source) in [
            ("combine", include_str!("../../../examples/str/combine.str")),
            ("fibonacci", include_str!("../../../examples/str/fibonacci.str")),
            ("filterbank", include_str!("../../../examples/str/filterbank.str")),
            ("fmradio", include_str!("../../../examples/str/fmradio.str")),
        ] {
            let out = streamit_frontend::compile(source, "Main").expect("example compiles");
            streams.push((name.to_string(), out.stream));
        }
        for seed in 0..600 {
            let g = &mut proptest::rng::Rng::from_name(&format!("verify {seed}"));
            streams.push((format!("seed {seed}"), generated(g, 3)));
        }
        for delay in 0..3 {
            streams.push((format!("fib_loop({delay})"), fib_loop(delay)));
        }
        let (mut clean, mut deadlocked, mut overflowing) = (0, 0, 0);
        for (what, stream) in &streams {
            let r = bulk_like_per_firing(what, stream);
            clean += r.is_ok() as usize;
            deadlocked += !r.deadlocks.is_empty() as usize;
            overflowing += !r.overflows.is_empty() as usize;
        }
        assert!(
            clean >= 200 && deadlocked >= 20 && overflowing >= 20,
            "{clean} clean, {deadlocked} deadlocked, {overflowing} overflowing: too few of a kind"
        );
    }

    #[test]
    fn underprimed_loop_reports_the_same_message() {
        let r = bulk_like_per_firing("fib_loop(1)", &fib_loop(1));
        assert_eq!(
            r.deadlocks,
            [
                "fib/adder fired 0 of 1 times",
                "fib/loopsplit fired 0 of 1 times",
                "fib/lb fired 0 of 1 times (feedback loop under-primed: increase \
                 delay/initPath items)",
            ]
        );
    }

    #[test]
    fn budget_boundary_is_counted_not_run() {
        // `push` items into a filter of pop 1: reps 1 and `push`.  A
        // peek surplus of one takes one more init round (factor 4 over
        // the reps); without it the factor is 3.
        let chain = |push, peek| {
            pipeline(
                "p",
                vec![rated("src", 1, 1, push), rated("dst", peek, 1, 1)],
            )
        };
        // 4 × (1 + 499 999) = VERIFY_BUDGET: run, and clean.
        let at = bulk_like_per_firing("at the budget", &chain(499_999, 2));
        assert!(at.is_ok(), "{at:?}");
        // 3 × (1 + 666 666) = VERIFY_BUDGET + 1: declined unrun.
        let past = bulk_like_per_firing("one past the budget", &chain(666_666, 1));
        assert_eq!(
            past.overflows,
            ["steady state too large to verify: 2000001 firings per steady state \
              exceeds the verification budget (2000000)"]
        );
    }
}
