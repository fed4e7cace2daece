//! The linear benchmark suite: eight programs of FIRs, decimators,
//! upsamplers and summers, mirroring the shapes of the linear
//! optimization paper's suite.  `paper linear` models them, `paper host`
//! times them under each linear mode, and the compiled engine's kernel
//! tests run their dense kernels against the bytecode.

use streamit_graph::builder::*;
use streamit_graph::{DataType, Joiner, Splitter, StreamNode};

use crate::common;

/// An N-tap FIR written as a user would, a loop over the peek window:
/// the linear suite carries no optimizer kernel hints, so the extractor
/// has to recover the affine maps from the IR.
fn fir_node(name: &str, taps: usize, seed: f64) -> StreamNode {
    let tap = |i: usize| ((i as f64 + 1.0) * seed).sin() / taps as f64;
    common::fir(name, &(0..taps).map(tap).collect::<Vec<_>>())
}

/// Keep one of every `k` items.
fn decimator(name: &str, k: usize) -> StreamNode {
    FilterBuilder::new(name, DataType::Float)
        .rates(k, k, 1)
        .work(move |b| {
            b.push(peek(iconst(0)))
                .for_("t", 0, k as i64, |b| b.pop_discard())
        })
        .build_node()
}

/// Insert `k - 1` zeros after every item.
fn upsampler(name: &str, k: usize) -> StreamNode {
    FilterBuilder::new(name, DataType::Float)
        .rates(1, 1, k)
        .work(move |b| {
            let mut b = b.push(peek(iconst(0)));
            for _ in 1..k {
                b = b.push(lit(0.0));
            }
            b.pop_discard()
        })
        .build_node()
}

/// Pop `k` items, push their sum.
fn summer(name: &str, k: usize) -> StreamNode {
    FilterBuilder::new(name, DataType::Float)
        .rates(k, k, 1)
        .work(move |b| {
            b.let_("acc", DataType::Float, lit(0.0))
                .for_("i", 0, k as i64, |b| {
                    b.set("acc", var("acc") + peek(var("i")))
                })
                .push(var("acc"))
                .for_("t", 0, k as i64, |b| b.pop_discard())
        })
        .build_node()
}

/// A duplicate-split bank of `n` branches joined round-robin.
fn bank(name: &str, n: usize, branch: impl Fn(usize) -> StreamNode) -> StreamNode {
    let branches = (0..n).map(branch).collect();
    splitjoin(name, Splitter::Duplicate, branches, Joiner::round_robin(n))
}

/// The linear benchmark programs, mirroring the shapes of the linear
/// optimization paper's suite.
pub fn linear_suite() -> Vec<(&'static str, StreamNode)> {
    let chain = |name: &'static str, stages| (name, pipeline(name, stages));
    vec![
        chain(
            "FIRCascade",
            vec![
                fir_node("f1", 32, 0.11),
                fir_node("f2", 32, 0.17),
                fir_node("f3", 32, 0.23),
            ],
        ),
        chain(
            "RateConvert",
            vec![fir_node("aa", 64, 0.13), decimator("down8", 8)],
        ),
        chain(
            "DToA",
            vec![upsampler("up4", 4), fir_node("interp", 64, 0.19)],
        ),
        (
            "TargetDetect",
            bank("TargetDetect", 4, |i| {
                fir_node(&format!("match{i}"), 64, 0.07 + 0.04 * i as f64)
            }),
        ),
        chain(
            "Equalizer",
            vec![
                bank("bands", 8, |i| {
                    fir_node(&format!("band{i}"), 64, 0.05 + 0.03 * i as f64)
                }),
                summer("sum", 8),
            ],
        ),
        chain(
            "Oversampler",
            vec![
                upsampler("up2a", 2),
                fir_node("o1", 32, 0.21),
                upsampler("up2b", 2),
                fir_node("o2", 32, 0.29),
            ],
        ),
        (
            "FilterBankLin",
            bank("FilterBankLin", 8, |i| {
                pipeline(
                    format!("fbBranch{i}"),
                    vec![
                        fir_node(&format!("fb{i}"), 32, 0.06 + 0.02 * i as f64),
                        decimator(&format!("fbDown{i}"), 8),
                    ],
                )
            }),
        ),
        chain("OneBigFIR", vec![fir_node("big", 256, 0.03)]),
    ]
}
