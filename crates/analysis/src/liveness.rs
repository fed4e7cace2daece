//! Backward liveness over the work IR, and the dead-store query built on
//! it.
//!
//! A name is *live* at a program point when some path from that point
//! reads it before (or without) overwriting it.  The work IR is
//! structured, so the analysis is one recursive walk from the end of a
//! body to its start, carrying the live set:
//!
//! * a statement kills what it defines, then adds what it reads;
//! * an `if` is the union of its two arms, plus the condition's reads;
//! * a `for` is live-in at its head with whatever is live after the loop
//!   (zero trips) or at the start of the body (another trip), minus the
//!   loop variable, which the head defines.  Every transfer here is
//!   gen/kill, so the body's live-in is `G ∪ (out ∖ K)` for fixed sets
//!   `G`, `K`, and the least solution of `head = (after ∪ body_in(head))
//!   ∖ {var}` is `(after ∪ G) ∖ {var}`: one pass over the body finds it,
//!   whatever the nesting depth.  The bounds are read once, before the
//!   first trip.
//!
//! The analysis is name-based to match the IR: arrays are treated
//! monolithically (an indexed store is a *weak* update that leaves the
//! whole array live), and shadow-ambiguous names (see
//! [`crate::scope::pinned_names`]) are never killed and never reported, so
//! the query never misfires across scopes.
//!
//! State variables are live at body exit: filter state persists across
//! invocations and may be read by the next firing, by prework, or by any
//! message handler.  A store to state is therefore only dead when a
//! *later store in the same body* overwrites it before any read.

use std::collections::HashSet;

use streamit_graph::{Expr, Filter, LValue, Stmt};

use crate::scope::pinned_names;

/// Names live at one program point, pinned names left out.
type Live<'a> = HashSet<&'a str>;

/// One store whose value is never read.
#[derive(Debug)]
pub struct DeadStore<'a> {
    /// The defining statement (a scalar `let` or a whole-variable
    /// assignment), identity-comparable against the source block.
    pub stmt: &'a Stmt,
    pub name: &'a str,
    /// `true` for a `let` whose value is never read (the binding itself
    /// may still be syntactically required if re-assigned — callers
    /// check).
    pub is_let: bool,
}

/// Stores (scalar `let` initializers and whole-variable assignments) of
/// `block`, a body of `f`, whose value no subsequent path reads, in
/// source order.  Pinned names are never reported.  Dead `LetArray`s are
/// reported through the unused-state style lints, not here.
pub fn dead_stores<'a>(f: &'a Filter, block: &'a [Stmt]) -> Vec<DeadStore<'a>> {
    dead_stores_pinned(f, block, &pinned_names(f, block))
}

/// [`dead_stores`], `pinned` being `block`'s pinned names.
pub(crate) fn dead_stores_pinned<'a>(
    f: &'a Filter,
    block: &'a [Stmt],
    pinned: &HashSet<String>,
) -> Vec<DeadStore<'a>> {
    let mut walk = Walk {
        pinned,
        dead: Vec::new(),
    };
    let mut live: Live<'a> = f.state.iter().map(|sv| sv.name.as_str()).collect();
    walk.block(block, &mut live, true);
    walk.dead.reverse();
    walk.dead
}

/// Add every name `e` reads (scalars and arrays).
fn uses<'a>(e: &'a Expr, live: &mut Live<'a>) {
    e.visit(&mut |e| {
        if let Expr::Var(n) | Expr::Index(n, _) = e {
            live.insert(n);
        }
    });
}

struct Walk<'a, 'p> {
    pinned: &'p HashSet<String>,
    /// Dead stores met so far; the walk runs backward, so last first.
    dead: Vec<DeadStore<'a>>,
}

impl<'a> Walk<'a, '_> {
    /// Turn `live`, the names live after `block`, into the names live
    /// before it; with `record`, note each store that is dead on the way.
    fn block(&mut self, block: &'a [Stmt], live: &mut Live<'a>, record: bool) {
        for s in block.iter().rev() {
            self.stmt(s, live, record);
        }
    }

    fn kill(&self, live: &mut Live<'a>, name: &str) {
        if !self.pinned.contains(name) {
            live.remove(name);
        }
    }

    /// A scalar store to `name`: dead when the name is not live after it.
    fn store(&mut self, stmt: &'a Stmt, name: &'a str, live: &mut Live<'a>, record: bool) {
        if self.pinned.contains(name) {
            return;
        }
        if !live.remove(name) && record {
            self.dead.push(DeadStore {
                stmt,
                name,
                is_let: matches!(stmt, Stmt::Let { .. }),
            });
        }
    }

    fn stmt(&mut self, s: &'a Stmt, live: &mut Live<'a>, record: bool) {
        match s {
            Stmt::Let { name, init, .. } => {
                self.store(s, name, live, record);
                uses(init, live);
            }
            Stmt::LetArray { name, .. } => self.kill(live, name),
            Stmt::Assign { target, value } => {
                match target {
                    LValue::Var(name) => self.store(s, name, live, record),
                    LValue::Index(name, idx) => {
                        // Weak update: the rest of the array may be read.
                        live.insert(name);
                        uses(idx, live);
                    }
                }
                uses(value, live);
            }
            Stmt::Push(e) | Stmt::Expr(e) => uses(e, live),
            Stmt::Send { args, .. } => {
                for a in args {
                    uses(a, live);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let mut other = live.clone();
                self.block(else_body, &mut other, record);
                self.block(then_body, live, record);
                live.extend(other);
                uses(cond, live);
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                // `live` arrives as what is live after the loop and is
                // turned into the head's live-in, `(after ∪ G) ∖ {var}`
                // (module docs): the zero-trip path first...
                self.kill(live, var);
                // ...then what one pass over the body generates.
                let mut body_in = live.clone();
                self.block(body, &mut body_in, false);
                self.kill(&mut body_in, var);
                live.extend(body_in);
                if record {
                    // The end of the body flows into the head.
                    self.block(body, &mut live.clone(), true);
                }
                uses(from, live);
                uses(to, live);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::FilterBuilder;
    use streamit_graph::{BinOp, DataType, StateVar, Value};

    fn filter_with(state: Vec<StateVar>, work: Vec<Stmt>) -> Filter {
        let mut f = FilterBuilder::new("t", DataType::Int)
            .rates(0, 0, 0)
            .build();
        f.state = state;
        f.work = work;
        f
    }

    fn let_(name: &str, e: Expr) -> Stmt {
        Stmt::Let {
            name: name.into(),
            ty: DataType::Int,
            init: e,
        }
    }

    fn assign(name: &str, e: Expr) -> Stmt {
        Stmt::Assign {
            target: LValue::Var(name.into()),
            value: e,
        }
    }

    fn var(name: &str) -> Expr {
        Expr::Var(name.into())
    }

    fn add(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(a), Box::new(b))
    }

    fn for_(var: &str, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var: var.into(),
            from: Expr::IntLit(0),
            to: Expr::IntLit(4),
            body,
        }
    }

    /// The dead stores of `f.work`, each as the literal it stores (the
    /// tests below give every store of interest a distinct one).
    fn dead_literals(f: &Filter) -> Vec<i64> {
        dead_stores(f, &f.work)
            .iter()
            .map(|d| match d.stmt {
                Stmt::Let {
                    init: Expr::IntLit(v),
                    ..
                }
                | Stmt::Assign {
                    value: Expr::IntLit(v),
                    ..
                } => *v,
                other => panic!("a dead store of a non-literal: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn unread_local_is_a_dead_store() {
        let f = filter_with(
            vec![],
            vec![let_("x", Expr::IntLit(1)), Stmt::Push(Expr::IntLit(0))],
        );
        let dead = dead_stores(&f, &f.work);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].name, "x");
        assert!(dead[0].is_let);
    }

    #[test]
    fn state_store_overwritten_before_read_is_dead() {
        let f = filter_with(
            vec![StateVar::scalar("s", DataType::Int, Value::Int(0))],
            vec![assign("s", Expr::IntLit(1)), assign("s", Expr::IntLit(2))],
        );
        // Only the first store is dead; the second feeds the next firing.
        assert_eq!(dead_literals(&f), [1]);
    }

    #[test]
    fn state_store_at_body_end_is_live() {
        let f = filter_with(
            vec![StateVar::scalar("s", DataType::Int, Value::Int(0))],
            vec![assign("s", Expr::IntLit(1))],
        );
        assert!(dead_stores(&f, &f.work).is_empty());
    }

    #[test]
    fn loop_carried_read_keeps_store_alive() {
        // acc updated each iteration, read next iteration and pushed.
        let f = filter_with(
            vec![],
            vec![
                let_("acc", Expr::IntLit(0)),
                for_("i", vec![assign("acc", add(var("acc"), var("i")))]),
                Stmt::Push(var("acc")),
            ],
        );
        assert!(dead_stores(&f, &f.work).is_empty());
    }

    #[test]
    fn indexed_store_is_a_weak_update() {
        let f = filter_with(
            vec![StateVar::array("w", DataType::Int, vec![Value::Int(0); 4])],
            vec![Stmt::Assign {
                target: LValue::Index("w".into(), Expr::IntLit(0)),
                value: Expr::IntLit(9),
            }],
        );
        assert!(dead_stores(&f, &f.work).is_empty());
    }

    #[test]
    fn store_read_only_by_the_next_trip_is_live() {
        // for i { push(prev); prev = 7; } — nothing after the loop reads
        // `prev`, and nothing later in the trip does: only the back edge
        // keeps the store alive.  The store before the loop feeds trip one.
        let f = filter_with(
            vec![],
            vec![
                let_("prev", Expr::IntLit(1)),
                for_(
                    "i",
                    vec![Stmt::Push(var("prev")), assign("prev", Expr::IntLit(7))],
                ),
            ],
        );
        assert!(dead_stores(&f, &f.work).is_empty());
        // Without the read there is no next-trip use either: both die.
        let f = filter_with(
            vec![],
            vec![
                let_("prev", Expr::IntLit(1)),
                for_("i", vec![assign("prev", Expr::IntLit(7))]),
            ],
        );
        assert_eq!(dead_literals(&f), [1, 7]);
    }

    #[test]
    fn inner_loop_store_read_after_the_outer_loop_is_live() {
        // `last` leaves two loops before it is read; `tmp` is overwritten
        // by the next inner trip and read by nobody.
        let f = filter_with(
            vec![],
            vec![
                let_("last", Expr::IntLit(1)),
                let_("tmp", Expr::IntLit(2)),
                for_(
                    "i",
                    vec![for_(
                        "j",
                        vec![
                            assign("last", Expr::IntLit(3)),
                            assign("tmp", Expr::IntLit(4)),
                        ],
                    )],
                ),
                Stmt::Push(var("last")),
            ],
        );
        // `last = 1` survives a zero-trip loop; it is live.
        assert_eq!(dead_literals(&f), [2, 4]);
    }

    #[test]
    fn loop_counter_does_not_kill_a_live_name_it_shadows() {
        // `n` is a local and a loop counter: the name is pinned, so the
        // loop head must not end the local's live range (and the local is
        // never reported, read or not).
        let f = filter_with(
            vec![],
            vec![
                let_("n", Expr::IntLit(1)),
                let_("x", Expr::IntLit(2)),
                for_("n", vec![Stmt::Push(var("n"))]),
                Stmt::Push(var("n")),
            ],
        );
        assert_eq!(dead_literals(&f), [2]);
        // An unshadowed counter is the head's own definition: a store to
        // the same name before the loop is dead.
        let f = filter_with(
            vec![],
            vec![
                assign("k", Expr::IntLit(1)),
                for_("k", vec![Stmt::Push(var("k"))]),
            ],
        );
        assert_eq!(dead_literals(&f), [1]);
    }

    #[test]
    fn arm_store_read_by_the_other_arm_on_the_next_trip_is_live() {
        // for i { if (pop()) { push(a); b = 5; } else { a = 6; b = 7; } }
        // — `a = 6` is read by the *other* arm a trip later; `b` is read
        // by neither arm, so both its stores are dead, in source order.
        let f = filter_with(
            vec![],
            vec![
                let_("a", Expr::IntLit(1)),
                let_("b", Expr::IntLit(2)),
                for_(
                    "i",
                    vec![Stmt::If {
                        cond: Expr::Pop,
                        then_body: vec![Stmt::Push(var("a")), assign("b", Expr::IntLit(5))],
                        else_body: vec![assign("a", Expr::IntLit(6)), assign("b", Expr::IntLit(7))],
                    }],
                ),
            ],
        );
        assert_eq!(dead_literals(&f), [2, 5, 7]);
    }
}
