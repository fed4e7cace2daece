//! What the differential suites share: the input signal and the
//! default compile of an `apps::corpus()` graph.  The corpus itself
//! (names, constructors, compared prefixes) lives in `streamit::apps`.

#![allow(dead_code)]

use streamit::graph::StreamNode;
use streamit::{CompiledProgram, Compiler};

/// Deterministic varied input: integers in [-50, 50] as floats, so
/// int-typed graphs (sorters, ciphers) see real data and float-typed
/// graphs see a non-trivial signal.  `varied_input(a)` is a prefix of
/// `varied_input(b)` for `a <= b`, so engines may size their own
/// inputs and still consume the same stream.
pub fn varied_input(len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i * 37) % 101) as f64 - 50.0).collect()
}

pub fn compile(name: &str, stream: StreamNode) -> CompiledProgram {
    Compiler::default()
        .compile_stream(stream)
        .unwrap_or_else(|e| panic!("{name}: app graph must compile: {e}"))
}
