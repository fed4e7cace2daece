//! Chaos differential suite: inject faults (worker panics, stalls,
//! delayed publishes) into the compiled and parallel engines across the
//! fifteen-app corpus and prove the supervision contract:
//!
//! * under any injected fault the supervised run either produces output
//!   **bit-identical** to the reference interpreter (via the engine
//!   degradation ladder) or fails with the *correct typed* `E07xx`
//!   diagnostic within the watchdog bound;
//! * it **never** hangs, escapes a raw panic, or returns truncated or
//!   corrupt output.
//!
//! Every case runs inside a hard timeout guard, so a supervision bug
//! that reintroduces a hang fails the test instead of wedging CI.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use streamit::apps;
use streamit::exec::{ExecError, FaultPlan, SessionConfig};
use streamit::rt::RunConfig;
use streamit::{CompiledProgram, Engine, OnEngineFault, SupervisorConfig};

#[path = "support/corpus.rs"]
mod corpus;
use corpus::{compile, varied_input};

/// Hard per-case bound: generous next to the watchdog deadlines used
/// below, tight next to a real hang.
const CASE_TIMEOUT: Duration = Duration::from_secs(60);

/// Watchdog deadline for stall cases: long enough that scheduler noise
/// cannot trip it on a healthy pipeline, short enough to keep the suite
/// fast.
const STALL_DEADLINE_MS: u64 = 300;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

// The four apps every engine must accept: on these, an injected
// parallel-engine fault is guaranteed to actually fire, so they anchor
// the non-vacuity assertions below.
use streamit::apps::THROUGHPUT_APPS as MUST_SUPPORT;

/// Run `f` on its own thread and fail loudly if it neither finishes nor
/// panics within [`CASE_TIMEOUT`]: the supervision contract forbids
/// hangs, so a timeout here is itself the bug being hunted.
fn with_timeout<F: FnOnce() + Send + 'static>(name: &str, f: F) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("chaos-{name}"))
        .spawn(move || {
            f();
            let _ = tx.send(());
        })
        .expect("chaos worker spawns");
    match rx.recv_timeout(CASE_TIMEOUT) {
        Ok(()) => handle.join().expect("finished worker joins"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The case panicked before sending: surface the original
            // panic (an assertion failure inside the case) verbatim.
            match handle.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(()) => unreachable!("disconnected sender implies panic"),
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: chaos case hung past {CASE_TIMEOUT:?} — supervision failed")
        }
    }
}

/// Input sized so *every* rung of the ladder can produce `n` outputs
/// from the same deterministic stream (extra trailing input is inert
/// under Kahn semantics).
fn sized_input(p: &CompiledProgram, n: usize) -> Vec<f64> {
    let mut need = 2048u64;
    if let Ok(cg) = p.compile_exec() {
        let k = if n as u64 <= cg.init_outputs() {
            0
        } else {
            (n as u64 - cg.init_outputs()).div_ceil(cg.outputs_per_iteration().max(1))
        };
        need = need.max(cg.required_input(k));
    }
    if let Ok(pg) = p.compile_parallel(2) {
        let k = if n as u64 <= pg.init_outputs() {
            0
        } else {
            (n as u64 - pg.init_outputs()).div_ceil(pg.outputs_per_iteration().max(1))
        };
        need = need.max(pg.required_input(k));
    }
    varied_input(need as usize)
}

/// Reference output for `p`, the ground truth every fallback must hit.
/// A handful of corpus apps reject this generic harness input even on
/// the reference interpreter (teleport messaging needs matched i/o
/// sizing); those return the typed diagnostic code instead, and the
/// caller asserts the supervised run fails just as cleanly.
fn reference_truth(
    name: &str,
    p: &CompiledProgram,
    input: &[f64],
    n: usize,
) -> Result<Vec<u64>, &'static str> {
    match p.run(input, n) {
        Ok(mut out) => {
            out.truncate(n);
            Ok(bits(&out))
        }
        Err(e) => {
            let d = streamit::Diag::from(e);
            assert!(
                MUST_SUPPORT.iter().all(|m| *m != name),
                "{name}: reference run failed: {d}"
            );
            Err(d.code)
        }
    }
}

/// When even the reference interpreter rejects the harness input, the
/// supervised run has no rung left to succeed on: it must fail with a
/// *typed* diagnostic (never hang or escape a panic), and the ladder
/// must bottom out on the same reference-level code.
fn supervised_must_fail_typed(
    name: &str,
    p: &CompiledProgram,
    input: &[f64],
    n: usize,
    cfg: &SupervisorConfig,
    reference_code: &str,
) {
    let d = p
        .run_supervised(Engine::Parallel { threads: 2 }, input, n, cfg)
        .expect_err("no rung can succeed where the reference rejects the input");
    assert!(
        d.code.starts_with('E'),
        "{name}: untyped supervised failure: {d}"
    );
    assert_eq!(
        d.code, reference_code,
        "{name}: ladder must bottom out on the reference diagnostic: {d}"
    );
}

/// Assert the supervision contract for one (app, fault, engine, policy)
/// cell: a fallback-policy run must land on *some* engine with output
/// bit-identical to the reference, and every attempt along the way must
/// carry one of `allowed_codes`. Returns the codes seen.
fn assert_fallback_identical(
    name: &str,
    p: &CompiledProgram,
    engine: Engine,
    input: &[f64],
    n: usize,
    want: &[u64],
    cfg: &SupervisorConfig,
    allowed_codes: &[&str],
) -> Vec<&'static str> {
    let outcome = p
        .run_supervised(engine, input, n, cfg)
        .unwrap_or_else(|d| panic!("{name}: fallback policy must recover, got: {d}"));
    let mut out = outcome.output;
    out.truncate(n);
    assert_eq!(
        bits(&out),
        want,
        "{name}: degraded run on {} is not bit-identical to the reference",
        outcome.engine
    );
    let codes: Vec<&'static str> = outcome.attempts.iter().map(|a| a.diag.code).collect();
    for code in &codes {
        assert!(
            allowed_codes.contains(code),
            "{name}: unexpected attempt code {code} (allowed {allowed_codes:?})"
        );
    }
    codes
}

#[test]
fn chaos_panic_injection_is_isolated_and_recovered() {
    for app in apps::corpus() {
        let (name, n) = (app.name, app.prefix);
        with_timeout(name, move || {
            let p = compile(name, app.graph());
            let input = sized_input(&p, n);
            let plan = "panic@0:0".parse().expect("fault plan parses");
            let fallback_cfg = SupervisorConfig {
                fault_plan: Some(plan),
                retries: 0,
                backoff_ms: 1,
                ..SupervisorConfig::default()
            };
            let want = match reference_truth(name, &p, &input, n) {
                Ok(w) => w,
                Err(code) => {
                    supervised_must_fail_typed(name, &p, &input, n, &fallback_cfg, code);
                    return;
                }
            };
            for engine in [Engine::Parallel { threads: 2 }, Engine::Compiled] {
                // Fallback: the ladder absorbs the panic and the output
                // is bit-identical; attempts are declines or the typed
                // panic diagnostic, never anything else.
                let cfg = fallback_cfg;
                let codes = assert_fallback_identical(
                    name,
                    &p,
                    engine,
                    &input,
                    n,
                    &want,
                    &cfg,
                    &["E0701", "E0705"],
                );
                if MUST_SUPPORT.contains(&name) {
                    assert!(
                        codes.contains(&"E0705"),
                        "{name}: injected panic never fired on {engine} (codes {codes:?})"
                    );
                }

                // Error policy: the first rung that actually runs hits
                // the injected panic and surfaces it as E0705/exit 5.
                // Rungs that *decline* (E0701) still degrade — if every
                // runnable rung is the reference interpreter, which
                // ignores injection, a clean identical run is correct.
                let cfg = SupervisorConfig {
                    on_fault: OnEngineFault::Error,
                    ..cfg
                };
                match p.run_supervised(engine, &input, n, &cfg) {
                    Err(d) => {
                        assert_eq!(d.code, "E0705", "{name} on {engine}: {d}");
                        assert_eq!(d.exit_code(), 5, "{name} on {engine}: {d}");
                    }
                    Ok(outcome) => {
                        assert_eq!(
                            outcome.engine,
                            Engine::Reference,
                            "{name}: only the reference rung may complete under \
                             the error policy with a panic planned"
                        );
                        let mut out = outcome.output;
                        out.truncate(n);
                        assert_eq!(bits(&out), want, "{name}: corrupt fallback output");
                    }
                }
            }
        });
    }
}

#[test]
fn chaos_stall_injection_trips_watchdog_or_is_benign() {
    for app in apps::corpus() {
        let (name, n) = (app.name, app.prefix);
        with_timeout(name, move || {
            let p = compile(name, app.graph());
            let input = sized_input(&p, n);
            let plan = "stall@0:0".parse().expect("fault plan parses");
            let want = match reference_truth(name, &p, &input, n) {
                Ok(w) => w,
                Err(code) => {
                    let cfg = SupervisorConfig {
                        watchdog_ms: Some(STALL_DEADLINE_MS),
                        fault_plan: Some(plan),
                        retries: 0,
                        backoff_ms: 1,
                        ..SupervisorConfig::default()
                    };
                    supervised_must_fail_typed(name, &p, &input, n, &cfg, code);
                    return;
                }
            };

            // Error policy, parallel engine: if the parallel rung runs,
            // the stalled worker makes no progress and the watchdog
            // must fire E0706 within its deadline. Serial rungs ignore
            // stall plans (a stall is a concurrency phenomenon), so a
            // decline-degraded run completes identically instead.
            let cfg = SupervisorConfig {
                watchdog_ms: Some(STALL_DEADLINE_MS),
                on_fault: OnEngineFault::Error,
                fault_plan: Some(plan),
                retries: 0,
                backoff_ms: 1,
                ..SupervisorConfig::default()
            };
            match p.run_supervised(Engine::Parallel { threads: 2 }, &input, n, &cfg) {
                Err(d) => {
                    assert_eq!(d.code, "E0706", "{name}: {d}");
                    assert_eq!(d.exit_code(), 5, "{name}: {d}");
                    assert!(
                        d.to_string().contains("stalled"),
                        "{name}: snapshotless stall diagnostic: {d}"
                    );
                }
                Ok(outcome) => {
                    assert!(
                        !MUST_SUPPORT.contains(&name),
                        "{name}: injected stall never tripped the watchdog"
                    );
                    let mut out = outcome.output;
                    out.truncate(n);
                    assert_eq!(bits(&out), want, "{name}: corrupt fallback output");
                }
            }

            // Fallback policy: the ladder steps off the stalled rung and
            // the run completes bit-identically.
            let cfg = SupervisorConfig {
                on_fault: OnEngineFault::Fallback,
                ..cfg
            };
            assert_fallback_identical(
                name,
                &p,
                Engine::Parallel { threads: 2 },
                &input,
                n,
                &want,
                &cfg,
                &["E0701", "E0706"],
            );
        });
    }
}

#[test]
fn chaos_delayed_publish_keeps_output_bit_identical() {
    // A delayed publish is a performance fault, not a correctness fault:
    // with the watchdog deadline well above the injected delay the run
    // must complete on the requested engine with bit-identical output.
    for app in apps::corpus() {
        let (name, n) = (app.name, app.prefix);
        with_timeout(name, move || {
            let p = compile(name, app.graph());
            let input = sized_input(&p, n);
            let plan = "delay@0:0".parse().expect("fault plan parses");
            let cfg = SupervisorConfig {
                watchdog_ms: Some(2_000),
                fault_plan: Some(plan),
                retries: 0,
                backoff_ms: 1,
                ..SupervisorConfig::default()
            };
            let want = match reference_truth(name, &p, &input, n) {
                Ok(w) => w,
                Err(code) => {
                    supervised_must_fail_typed(name, &p, &input, n, &cfg, code);
                    return;
                }
            };
            for engine in [Engine::Parallel { threads: 2 }, Engine::Compiled] {
                assert_fallback_identical(name, &p, engine, &input, n, &want, &cfg, &["E0701"]);
            }
        });
    }
}

#[test]
fn chaos_watchdog_is_zero_interference_without_injection() {
    // The acceptance bar for the supervision layer: with the watchdog
    // armed and no fault injected, all fifteen apps still run
    // bit-identically to the reference (modulo engine declines, which
    // degrade cleanly).
    let mut cases = 0;
    for app in apps::corpus() {
        let (name, n) = (app.name, app.prefix);
        cases += 1;
        with_timeout(name, move || {
            let p = compile(name, app.graph());
            let input = sized_input(&p, n);
            let cfg = SupervisorConfig {
                watchdog_ms: Some(2_000),
                ..SupervisorConfig::default()
            };
            let want = match reference_truth(name, &p, &input, n) {
                Ok(w) => w,
                Err(code) => {
                    supervised_must_fail_typed(name, &p, &input, n, &cfg, code);
                    return;
                }
            };
            let codes = assert_fallback_identical(
                name,
                &p,
                Engine::Parallel { threads: 2 },
                &input,
                n,
                &want,
                &cfg,
                &["E0701"],
            );
            if MUST_SUPPORT.contains(&name) {
                assert!(
                    codes.is_empty(),
                    "{name}: supervised happy path must not degrade (codes {codes:?})"
                );
            }
        });
    }
    assert_eq!(cases, apps::corpus().len());
}

/// What one front end made of one injected fault.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// Ran to completion; the first `n` outputs, as bits.
    Output(Vec<u64>),
    /// Typed `WorkerPanic` whose payload names the injected fault.
    Panicked,
    /// Stopped after this many iterations while still reporting itself
    /// runnable, and a further step ran nothing.
    Frozen(u64),
    /// The watchdog declared a stall.
    Stalled,
}

fn outcome(run: Result<Vec<f64>, ExecError>, n: usize) -> Outcome {
    match run {
        Ok(out) => Outcome::Output(bits(&out[..n])),
        Err(ExecError::WorkerPanic { payload, .. }) => {
            assert!(payload.contains("injected fault"), "payload: {payload}");
            Outcome::Panicked
        }
        Err(ExecError::Stalled { .. }) => Outcome::Stalled,
        Err(e) => panic!("untyped outcome: {e}"),
    }
}

#[test]
fn chaos_fault_contract_is_the_same_driver_behind_every_front_end() {
    // One driver implements the three fault kinds; each front end only
    // decides what a stall means.  The same plans through all of them,
    // against the documented outcome per front end, at the first
    // iteration and at one past two batches, which the batching front
    // ends reach in scaled rounds.
    with_timeout("fault-parity", || {
        let p = compile("filterbank", apps::corpus_app("filterbank").graph());
        let cg = Arc::new(p.compile_exec().expect("compiled engine accepts"));
        let pgs = [1usize, 2].map(|t| p.compile_parallel(t).expect("parallel engine accepts"));
        assert_eq!(pgs.each_ref().map(|pg| pg.stages()), [1, 2]);
        let batch = pgs
            .iter()
            .map(|pg| pg.plan().batch.as_ref().map_or(1, |b| b.k))
            .fold(cg.batch_factor().unwrap_or(1), u32::max);
        assert!(batch > 1, "filterbank batches");
        let far = 2 * u64::from(batch) + 3;

        // Enough outputs that every front end runs past iteration `far`.
        let widest = pgs
            .iter()
            .map(|pg| pg.outputs_per_iteration())
            .fold(cg.outputs_per_iteration(), u64::max);
        let n = (cg.init_outputs() + (far + 2) * widest) as usize;
        let input = sized_input(&p, n);
        let k = cg.plan().stats.iterations_for(n as u64).expect("emits");
        assert!(k > far);

        let one_shot = |f: Option<FaultPlan>| cg.run(&input, k, f, None).map(|(out, _)| out);
        let parallel = |pg: &streamit::rt::ParallelGraph, f: Option<FaultPlan>| {
            let k = pg.plan().stats.iterations_for(n as u64).expect("emits");
            assert!(k > far);
            let cfg = RunConfig {
                watchdog: Some(Duration::from_millis(STALL_DEADLINE_MS)),
                fault: f,
            };
            pg.run(&input, k, &cfg)
        };
        let session = |f: Option<FaultPlan>| {
            let cfg = SessionConfig {
                in_capacity: input.len() as u64,
                out_capacity: n as u64 + cg.outputs_per_iteration(),
                fault: f,
            };
            let mut s = cg.open_session(&cfg).expect("opens");
            assert_eq!(s.push_input(&input), input.len());
            match s.step(k) {
                Ok(ran) if ran < k => {
                    assert_eq!(s.blocked(), None, "frozen, not blocked");
                    assert_eq!(s.step(k), Ok(0));
                    Outcome::Frozen(s.iterations())
                }
                ran => outcome(ran.map(|_| s.pull_output(usize::MAX)), n),
            }
        };

        let clean = outcome(one_shot(None), n);
        assert_eq!(clean, session(None));
        for pg in &pgs {
            assert_eq!(clean, outcome(parallel(pg, None), n));
        }
        assert!(matches!(clean, Outcome::Output(_)));
        for at in [1, far] {
            // (plan, one-shot, session, parallel at 1 and 2 stages)
            let table = [
                (
                    "panic",
                    Outcome::Panicked,
                    Outcome::Panicked,
                    Outcome::Panicked,
                ),
                ("delay", clean.clone(), clean.clone(), clean.clone()),
                (
                    "stall",
                    clean.clone(),
                    Outcome::Frozen(at),
                    Outcome::Stalled,
                ),
            ];
            for (kind, want_one_shot, want_session, want_parallel) in table {
                let f: Option<FaultPlan> = format!("{kind}@0:{at}").parse().ok();
                assert!(f.is_some());
                let what = format!("{kind} at {at}");
                assert_eq!(outcome(one_shot(f), n), want_one_shot, "{what}: one-shot");
                assert_eq!(session(f), want_session, "{what}: session");
                for pg in &pgs {
                    let stages = pg.stages();
                    assert_eq!(
                        outcome(parallel(pg, f), n),
                        want_parallel,
                        "{what}: parallel at {stages} stage(s)"
                    );
                }
            }
        }
    });
}
