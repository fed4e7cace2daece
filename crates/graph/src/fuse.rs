//! Horizontal fusion: the paper's synchronization removal on the flat
//! graph.
//!
//! A round-robin split-join whose branches are single non-peeking
//! filters computes, per splitter firing, exactly what one filter
//! computes that runs branch 0's body `m₀` times, then branch 1's `m₁`
//! times, and so on: branch `i` receives `wᵢ` consecutive items and
//! fires `mᵢ = wᵢ / popᵢ` times on them, and the joiner takes back the
//! `vᵢ = mᵢ·pushᵢ` items those firings pushed, in port order.  Because
//! every branch pops exactly its own items and peeks no further, the
//! concatenated body reads the same items in the same order, and pushes
//! the same values in the joiner's order; no operation is reordered, so
//! the fused filter is bit-identical to the split-join it replaces, and
//! it saves the splitter's and joiner's moves and one firing entry per
//! branch.
//!
//! [`fuse`] replaces every such split-join with one filter, innermost
//! first, so a nest collapses bottom-up.  A branch qualifies when it has
//! `peek ≤ pop`, `wᵢ` a positive multiple of its pop and a joiner weight
//! of `mᵢ·pushᵢ`, no prework, no message handlers, no `send`, no kernel
//! hint, and when neither the split-join's tapes nor its outer
//! connections carry a feedback loop's items.  Both outer connections
//! must be tapes (not the program's own input or output stream), with
//! the branches' item types, so every item is coerced exactly as before.
//! Every branch body must also have the shape of one the compiled
//! engine fires in lanes (see `lane_shaped`): fused beside one that
//! has not, a body would lose its lanes.
//!
//! The fused body renames every name branch `i` uses to `i.name` — its
//! state, locals and loop variables alike — so no branch can see
//! another's names; a branch fired more than once per splitter firing
//! runs in a loop over `0..mᵢ` whose variable (`i#`) no renamed name
//! can equal.  That each branch's body really has its declared rates is
//! the caller's to prove: the pass reads them as declared.

use crate::filter::{Filter, StateVar};
use crate::flat::{Edge, EdgeId, FlatGraph, FlatNode, FlatNodeKind, NodeId};
use crate::stream::{Joiner, Splitter};
use crate::work::{Expr, LValue, Stmt};

/// One split-join [`fuse`] replaced with a filter.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedSplitJoin {
    /// The fused filter's node name: the split-join's path, then its
    /// branches as [`member_list`] writes them.
    pub name: String,
    /// The branches' node names, in port order.
    pub branches: Vec<String>,
    /// Items the fused filter pops (and peeks) per firing.
    pub pop: usize,
    /// Items the fused filter pushes per firing.
    pub push: usize,
}

/// The names of a fused set as `a+b+c+Nmore`: the first three in order,
/// then how many more there are.
pub fn member_list<'a>(names: impl IntoIterator<Item = &'a str>) -> String {
    let mut names = names.into_iter();
    let mut list = names.by_ref().take(3).collect::<Vec<_>>().join("+");
    let more = names.count();
    if more > 0 {
        list.push_str(&format!("+{more}more"));
    }
    list
}

/// `g` with every qualifying round-robin split-join (see the module
/// docs) replaced by one filter, and what was fused, innermost first;
/// `None` when nothing was fused.  Node and edge ids are renumbered;
/// everything else keeps its relative order, and the fused filter takes
/// its splitter's place.
///
/// The first round reads `g`; the graph it leaves is copied once —
/// all but the nodes it fused away — and edited in place from then on:
/// a fused filter takes its splitter's slot and id, and its branches,
/// joiner and inner edges are marked gone.  A splitter that was no
/// candidate can become one only when one of its branches has just been
/// fused, so each later round looks only at the splitters feeding the
/// last round's fused filters.  The ids are renumbered once, at the end.
pub fn fuse(g: &FlatGraph) -> Option<(FlatGraph, Vec<FusedSplitJoin>)> {
    let mut gone = vec![false; g.nodes.len()];
    let mut edge_gone = vec![false; g.edges.len()];
    let found: Vec<Candidate> = (0..g.nodes.len())
        .filter_map(|s| candidate(g, NodeId(s)))
        .collect();
    if found.is_empty() {
        return None;
    }
    let mut report = Vec::new();
    let mut fused = fuse_round(g, &found, &mut gone, &mut edge_gone, &mut report);
    let stub = |n: &FlatNode| FlatNode {
        id: n.id,
        name: String::new(),
        kind: FlatNodeKind::Joiner(Joiner::Null),
        inputs: Vec::new(),
        outputs: Vec::new(),
    };
    let nodes = (g.nodes.iter())
        .map(|n| if gone[n.id.0] { stub(n) } else { n.clone() })
        .collect();
    let mut g = FlatGraph {
        nodes,
        edges: g.edges.clone(),
    };
    while !fused.is_empty() {
        let mut feeding = Vec::new();
        for n in fused {
            for e in &n.outputs {
                g.edges[e.0].src = n.id;
            }
            feeding.push(g.edge(n.inputs[0]).src);
            let id = n.id.0;
            g.nodes[id] = n;
        }
        feeding.sort_unstable_by_key(|n| n.0);
        feeding.dedup();
        let found: Vec<Candidate> = feeding.into_iter().filter_map(|s| candidate(&g, s)).collect();
        fused = fuse_round(&g, &found, &mut gone, &mut edge_gone, &mut report);
    }
    Some((renumbered(g, &gone, &edge_gone), report))
}

/// The filter nodes that replace `found`'s split-joins of `g`, each with
/// its splitter's id and its joiner's outputs; marks what they replace
/// gone and reports them in order.
fn fuse_round(
    g: &FlatGraph,
    found: &[Candidate],
    gone: &mut [bool],
    edge_gone: &mut [bool],
    report: &mut Vec<FusedSplitJoin>,
) -> Vec<FlatNode> {
    let mut fused = Vec::with_capacity(found.len());
    for c in found {
        let (filter, fusion) = fused_filter(g, c);
        report.push(fusion);
        gone[c.join.0] = true;
        for e in &g.node(c.split).outputs {
            edge_gone[e.0] = true;
        }
        for &(b, _) in &c.branches {
            gone[b.0] = true;
            edge_gone[g.node(b).outputs[0].0] = true;
        }
        fused.push(FlatNode {
            id: c.split,
            name: filter.name.clone(),
            kind: FlatNodeKind::Filter(filter),
            inputs: g.node(c.split).inputs.clone(),
            outputs: g.node(c.join).outputs.clone(),
        });
    }
    fused
}

/// `g` without the nodes and edges marked gone, the rest renumbered in
/// order.
fn renumbered(g: FlatGraph, gone: &[bool], edge_gone: &[bool]) -> FlatGraph {
    let mut node_map = vec![NodeId(usize::MAX); g.nodes.len()];
    let mut next = 0;
    for (m, _) in node_map.iter_mut().zip(gone).filter(|(_, &gone)| !gone) {
        *m = NodeId(next);
        next += 1;
    }
    let mut edge_map = vec![EdgeId(usize::MAX); g.edges.len()];
    let mut edges = Vec::with_capacity(g.edges.len());
    for mut e in g.edges.into_iter().filter(|e| !edge_gone[e.id.0]) {
        edge_map[e.id.0] = EdgeId(edges.len());
        e.id = EdgeId(edges.len());
        e.src = node_map[e.src.0];
        e.dst = node_map[e.dst.0];
        edges.push(e);
    }
    let remap = |list: &mut Vec<EdgeId>| list.iter_mut().for_each(|e| *e = edge_map[e.0]);
    let nodes = (g.nodes.into_iter().filter(|n| !gone[n.id.0]))
        .map(|mut n| {
            n.id = node_map[n.id.0];
            remap(&mut n.inputs);
            remap(&mut n.outputs);
            n
        })
        .collect();
    FlatGraph { nodes, edges }
}

/// A split-join [`fuse`] can replace: its splitter, branches (port
/// order) with their firings per splitter firing, and joiner.
struct Candidate {
    path: String,
    split: NodeId,
    branches: Vec<(NodeId, usize)>,
    join: NodeId,
}

/// The split-join whose splitter is `s`, if it qualifies.
fn candidate(g: &FlatGraph, s: NodeId) -> Option<Candidate> {
    let sn = g.node(s);
    let FlatNodeKind::Splitter(Splitter::RoundRobin(w)) = &sn.kind else {
        return None;
    };
    let plain = |e: &Edge| !e.is_back_edge && !e.loop_internal && e.initial.is_empty();
    let &[input] = &sn.inputs[..] else {
        return None;
    };
    let in_edge = g.edge(input);
    if w.is_empty() || w.len() != sn.outputs.len() || !plain(in_edge) {
        return None;
    }
    let mut branches = Vec::with_capacity(w.len());
    let mut join = None;
    for (port, (&e, &wi)) in sn.outputs.iter().zip(w).enumerate() {
        let e = g.edge(e);
        let b = g.node(e.dst);
        let f = b.as_filter()?;
        let (&[bin], &[bout]) = (&b.inputs[..], &b.outputs[..]) else {
            return None;
        };
        let out = g.edge(bout);
        let jn = g.node(out.dst);
        let FlatNodeKind::Joiner(Joiner::RoundRobin(v)) = &jn.kind else {
            return None;
        };
        let pop = f.pop as u64;
        let same_join = *join.get_or_insert(out.dst) == out.dst;
        let fits = bin == e.id
            && same_join
            && jn.inputs.get(port) == Some(&bout)
            && plain(e)
            && plain(out)
            && e.ty == in_edge.ty
            && plain_filter(f)
            && wi > 0
            && wi % pop == 0
            && v.get(port) == Some(&(wi / pop * f.push as u64));
        if !fits {
            return None;
        }
        branches.push((b.id, usize::try_from(wi / pop).ok()?));
    }
    let join = join?;
    let jn = g.node(join);
    let (FlatNodeKind::Joiner(Joiner::RoundRobin(v)), &[output]) = (&jn.kind, &jn.outputs[..])
    else {
        return None;
    };
    let out_edge = g.edge(output);
    let out_ty = |&(b, _): &(NodeId, usize)| g.edge(g.node(b).outputs[0]).ty;
    if jn.inputs.len() != branches.len()
        || v.len() != branches.len()
        || !plain(out_edge)
        || !branches.iter().all(|b| out_ty(b) == out_edge.ty)
    {
        return None;
    }
    let path = sn
        .name
        .strip_suffix("/split")
        .unwrap_or(&sn.name)
        .to_string();
    Some(Candidate {
        path,
        split: s,
        branches,
        join,
    })
}

/// A branch the fused body can absorb: an input and an output, peeking
/// no further than it pops, nothing but its work function — no prework,
/// handlers or kernel hint — and a `lane_shaped` body, which sends no
/// message.
fn plain_filter(f: &Filter) -> bool {
    f.input.is_some()
        && f.output.is_some()
        && f.pop > 0
        && f.peek <= f.pop
        && f.prework.is_none()
        && f.handlers.is_empty()
        && f.kernel.is_none()
        && lane_shaped(f)
}

/// Whether `f`'s work body has the shape of one the compiled engine
/// fires in lanes: it writes no state, keeps and reads no array, sends
/// no message, and branches only in loops with literal bounds.
/// Lowering decides (`exec`'s `Program::lane_safe`); a body of another
/// shape almost never passes, and the caller checks every fused body
/// that this shape gave.
fn lane_shaped(f: &Filter) -> bool {
    let mut shaped = !f.is_stateful();
    for s in &f.work {
        s.visit(&mut |s| {
            shaped &= match s {
                Stmt::If { .. } | Stmt::LetArray { .. } | Stmt::Send { .. } => false,
                Stmt::For { from, to, .. } => from.as_lit().is_some() && to.as_lit().is_some(),
                _ => true,
            }
        });
        s.visit_exprs(&mut |e| shaped &= !matches!(e, Expr::Index(..)));
    }
    shaped
}

/// The filter that replaces candidate `c`, and its report entry.
fn fused_filter(g: &FlatGraph, c: &Candidate) -> (Filter, FusedSplitJoin) {
    let branches: Vec<&FlatNode> = c.branches.iter().map(|&(b, _)| g.node(b)).collect();
    let labels = branches.iter().map(|n| {
        let rest = n.name.strip_prefix(c.path.as_str());
        rest.and_then(|r| r.strip_prefix('/')).unwrap_or(&n.name)
    });
    let name = format!("{}/{}", c.path, member_list(labels));
    let (mut pop, mut push) = (0, 0);
    let mut state = Vec::new();
    let mut work = Vec::new();
    for (i, (b, &(_, m))) in branches.iter().zip(&c.branches).enumerate() {
        let f = b.as_filter().expect("candidate branches are filters");
        let prefix = format!("{i}.");
        let rename = |n: &str| prefix.clone() + n;
        state.extend(f.state.iter().map(|s| StateVar {
            name: rename(&s.name),
            ..s.clone()
        }));
        let body = rename_block(&f.work, &rename);
        if m == 1 {
            work.extend(body);
        } else {
            work.push(Stmt::For {
                var: format!("{i}#"),
                from: Expr::IntLit(0),
                to: Expr::IntLit(m as i64),
                body,
            });
        }
        pop += m * f.pop;
        push += m * f.push;
    }
    let ty = |e: EdgeId| Some(g.edge(e).ty);
    let filter = Filter {
        // A path, so `Filter::made_by_pass` holds.
        name: name.clone(),
        input: ty(g.node(c.split).inputs[0]),
        output: ty(g.node(c.join).outputs[0]),
        peek: pop,
        pop,
        push,
        state,
        work,
        prework: None,
        handlers: Vec::new(),
        kernel: None,
    };
    let fusion = FusedSplitJoin {
        name,
        branches: branches.iter().map(|b| b.name.clone()).collect(),
        pop,
        push,
    };
    (filter, fusion)
}

/// `block` with every variable name `n` it declares, reads or writes
/// replaced by `rename(n)`.
fn rename_block(block: &[Stmt], rename: &impl Fn(&str) -> String) -> Vec<Stmt> {
    block.iter().map(|s| rename_stmt(s, rename)).collect()
}

fn rename_stmt(s: &Stmt, rename: &impl Fn(&str) -> String) -> Stmt {
    let e = |x: &Expr| rename_expr(x, rename);
    match s {
        Stmt::Let { name, ty, init } => Stmt::Let {
            name: rename(name),
            ty: *ty,
            init: e(init),
        },
        Stmt::LetArray { name, ty, len } => Stmt::LetArray {
            name: rename(name),
            ty: *ty,
            len: *len,
        },
        Stmt::Assign { target, value } => Stmt::Assign {
            target: match target {
                LValue::Var(n) => LValue::Var(rename(n)),
                LValue::Index(n, i) => LValue::Index(rename(n), e(i)),
            },
            value: e(value),
        },
        Stmt::Push(x) => Stmt::Push(e(x)),
        Stmt::For {
            var,
            from,
            to,
            body,
        } => Stmt::For {
            var: rename(var),
            from: e(from),
            to: e(to),
            body: rename_block(body, rename),
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: e(cond),
            then_body: rename_block(then_body, rename),
            else_body: rename_block(else_body, rename),
        },
        Stmt::Expr(x) => Stmt::Expr(e(x)),
        Stmt::Send {
            portal,
            handler,
            args,
            latency_min,
            latency_max,
        } => Stmt::Send {
            portal: portal.clone(),
            handler: handler.clone(),
            args: args.iter().map(e).collect(),
            latency_min: *latency_min,
            latency_max: *latency_max,
        },
    }
}

fn rename_expr(x: &Expr, rename: &impl Fn(&str) -> String) -> Expr {
    let e = |x: &Expr| Box::new(rename_expr(x, rename));
    match x {
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Pop => x.clone(),
        Expr::Var(n) => Expr::Var(rename(n)),
        Expr::Index(n, i) => Expr::Index(rename(n), e(i)),
        Expr::Peek(i) => Expr::Peek(e(i)),
        Expr::Unary(op, a) => Expr::Unary(*op, e(a)),
        Expr::Binary(op, a, b) => Expr::Binary(*op, e(a), e(b)),
        Expr::Call(g, args) => {
            Expr::Call(*g, args.iter().map(|a| rename_expr(a, rename)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::{DataType, StreamNode, Value};

    fn scale(name: &str, k: i64) -> StreamNode {
        FilterBuilder::new(name, DataType::Int)
            .rates(1, 1, 1)
            .work(move |b| b.push(pop() * lit(k)))
            .build_node()
    }

    fn around(sj: StreamNode) -> FlatGraph {
        FlatGraph::from_stream(&pipeline(
            "p",
            vec![
                identity("a", DataType::Int),
                sj,
                identity("z", DataType::Int),
            ],
        ))
    }

    fn rr(name: &str, w: Vec<u64>, branches: Vec<StreamNode>, v: Vec<u64>) -> StreamNode {
        splitjoin(
            name,
            Splitter::RoundRobin(w),
            branches,
            Joiner::RoundRobin(v),
        )
    }

    #[test]
    fn member_lists_name_three_then_count_the_rest() {
        assert_eq!(member_list(["a"]), "a");
        assert_eq!(member_list(["a", "b", "c"]), "a+b+c");
        assert_eq!(member_list(["a", "b", "c", "d", "e"]), "a+b+c+2more");
    }

    #[test]
    fn a_split_join_of_plain_filters_becomes_one_filter() {
        let g = around(rr(
            "sj",
            vec![1, 1],
            vec![scale("x", 2), scale("y", 3)],
            vec![1, 1],
        ));
        let (f, report) = fuse(&g).expect("fuses");
        assert_eq!(f.nodes.len(), 3);
        assert_eq!(f.edges.len(), 2);
        assert_eq!(f.topo_order().len(), 3);
        let n = f.node(NodeId(1));
        assert_eq!(n.name, "p/sj/x+y");
        let fused = n.as_filter().expect("a filter");
        assert_eq!((fused.peek, fused.pop, fused.push), (2, 2, 2));
        assert_eq!(fused.check_rates(), Ok(true));
        assert!(fused.made_by_pass());
        let x = g.nodes.iter().find(|n| n.name == "p/sj/x").expect("x");
        assert!(!x.as_filter().expect("a filter").made_by_pass());
        assert_eq!(
            report,
            vec![FusedSplitJoin {
                name: "p/sj/x+y".into(),
                branches: vec!["p/sj/x".into(), "p/sj/y".into()],
                pop: 2,
                push: 2,
            }]
        );
        for (i, e) in f.edges.iter().enumerate() {
            assert_eq!(e.id, EdgeId(i));
            assert!(f.node(e.src).outputs.contains(&e.id));
            assert!(f.node(e.dst).inputs.contains(&e.id));
        }
        assert_eq!(fuse(&f), None);
    }

    #[test]
    fn names_are_renamed_per_branch_and_repeats_loop() {
        let acc = |name: &str| {
            FilterBuilder::new(name, DataType::Int)
                .rates(1, 1, 1)
                .state("n", DataType::Int, Value::Int(4))
                .work(|b| b.let_("t", DataType::Int, pop()).push(var("n") + var("t")))
                .build_node()
        };
        let g = around(rr("sj", vec![2, 1], vec![acc("u"), acc("v")], vec![2, 1]));
        let (f, _) = fuse(&g).expect("fuses");
        let fused = f.node(NodeId(1)).as_filter().expect("a filter");
        let names: Vec<&str> = fused.state.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["0.n", "1.n"]);
        assert!(
            matches!(&fused.work[0], Stmt::For { var, to: Expr::IntLit(2), .. } if var == "0#")
        );
        assert!(matches!(&fused.work[1], Stmt::Let { name, .. } if name == "1.t"));
        assert_eq!((fused.pop, fused.push), (3, 3));
        assert_eq!(fused.check_rates(), Ok(true));
    }

    #[test]
    fn nests_collapse_innermost_first() {
        let inner = rr(
            "in",
            vec![1, 1],
            vec![scale("x", 2), scale("y", 3)],
            vec![1, 1],
        );
        let g = around(rr(
            "out",
            vec![2, 1],
            vec![inner, scale("w", 5)],
            vec![2, 1],
        ));
        let (f, report) = fuse(&g).expect("fuses");
        assert_eq!(f.nodes.len(), 3);
        let names: Vec<&str> = report.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["p/out/in/x+y", "p/out/in/x+y+w"]);
    }

    #[test]
    fn disqualified_split_joins_stay() {
        let peeking = FilterBuilder::new("pk", DataType::Int)
            .rates(2, 1, 1)
            .work(|b| b.push(peek(1)).pop_discard())
            .build_node();
        let cases = [
            // A branch peeking past its pop.
            rr("sj", vec![1, 1], vec![scale("x", 2), peeking], vec![1, 1]),
            // A weight that is not a multiple of the branch's pop.
            rr(
                "sj",
                vec![1, 1],
                vec![
                    scale("x", 2),
                    FilterBuilder::new("two", DataType::Int)
                        .rates(2, 2, 2)
                        .work(|b| b.push(pop()).push(pop()))
                        .build_node(),
                ],
                vec![1, 1],
            ),
            // A joiner weight that is not the branch's pushes per splitter firing.
            rr(
                "sj",
                vec![1, 1],
                vec![scale("x", 2), scale("y", 3)],
                vec![2, 2],
            ),
            // A branch that writes its state: its body has no lanes.
            rr(
                "sj",
                vec![1, 1],
                vec![
                    scale("x", 2),
                    FilterBuilder::new("count", DataType::Int)
                        .rates(1, 1, 1)
                        .state("n", DataType::Int, Value::Int(0))
                        .work(|b| b.set("n", var("n") + pop()).push(var("n")))
                        .build_node(),
                ],
                vec![1, 1],
            ),
            // A branch that branches outside a literal-bound loop.
            rr(
                "sj",
                vec![1, 1],
                vec![
                    scale("x", 2),
                    FilterBuilder::new("sign", DataType::Int)
                        .rates(1, 1, 1)
                        .work(|b| {
                            b.let_("t", DataType::Int, pop()).if_else(
                                var("t"),
                                |b| b.push(lit(0i64)),
                                |b| b.push(var("t")),
                            )
                        })
                        .build_node(),
                ],
                vec![1, 1],
            ),
            // A duplicate splitter.
            splitjoin(
                "sj",
                Splitter::Duplicate,
                vec![scale("x", 2), scale("y", 3)],
                Joiner::RoundRobin(vec![1, 1]),
            ),
        ];
        for sj in cases {
            assert_eq!(fuse(&around(sj.clone())), None, "{sj:?}");
        }
        // At the program's own input the splitter reads no tape.
        let bare = rr(
            "sj",
            vec![1, 1],
            vec![scale("x", 2), scale("y", 3)],
            vec![1, 1],
        );
        assert_eq!(fuse(&FlatGraph::from_stream(&bare)), None);
    }
}
