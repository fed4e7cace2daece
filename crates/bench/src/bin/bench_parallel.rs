//! `bench_parallel` — multicore scaling curves for the parallel engine.
//!
//! Runs four benchmark apps (FMRadio, FilterBank, BeamFormer,
//! BitonicSort) on the software-pipelined parallel engine at 1, 2, 4,
//! and 8 worker threads, verifies every configuration is bit-identical
//! to the serial compiled engine, and writes `BENCH_parallel.json` with
//! items/sec per thread count plus the scaling factor over the serial
//! compiled baseline.
//!
//! ```text
//! bench_parallel [--quick] [--out PATH]
//! ```
//!
//! `--quick` shortens the measurement window (CI smoke); `--out`
//! changes the report path (default `BENCH_parallel.json`).

use std::time::Instant;

use streamit::exec::CompiledGraph;
use streamit::graph::StreamNode;
use streamit::rt::ParallelGraph;
use streamit::Compiler;
use streamit_bench::host_json;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Deterministic varied input usable by both int- and float-typed apps.
fn varied_input(len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i * 37) % 101) as f64 - 50.0).collect()
}

struct Measurement {
    items_per_sec: f64,
    elapsed_s: f64,
    outputs: u64,
    iterations: u64,
}

/// Time `k` steady iterations on the serial compiled engine (the
/// scaling baseline).
fn measure_compiled(cg: &CompiledGraph, target_s: f64) -> Measurement {
    let mut k = 16u64;
    loop {
        let input = varied_input(cg.required_input(k) as usize);
        let t0 = Instant::now();
        let out = cg
            .run_steady(&input, k)
            .unwrap_or_else(|e| panic!("compiled steady run failed: {e}"));
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= target_s || k >= 1 << 26 {
            return Measurement {
                items_per_sec: out.len() as f64 / elapsed.max(1e-9),
                elapsed_s: elapsed,
                outputs: out.len() as u64,
                iterations: k,
            };
        }
        k = (k * 4).max(k + 1);
    }
}

/// Time `k` steady iterations on the parallel engine.  Thread spawn
/// cost is amortized by growing `k` until the window is long enough.
fn measure_parallel(pg: &ParallelGraph, target_s: f64) -> Measurement {
    let mut k = 16u64;
    loop {
        let input = varied_input(pg.required_input(k) as usize);
        let t0 = Instant::now();
        let out = pg
            .run_steady(&input, k)
            .unwrap_or_else(|e| panic!("parallel steady run failed: {e}"));
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= target_s || k >= 1 << 26 {
            return Measurement {
                items_per_sec: out.len() as f64 / elapsed.max(1e-9),
                elapsed_s: elapsed,
                outputs: out.len() as u64,
                iterations: k,
            };
        }
        k = (k * 4).max(k + 1);
    }
}

/// Bit-compare a short equal-length output prefix of the serial
/// compiled engine and a parallel configuration (the fissed graph may
/// have a different steady-state size, so compare prefixes).
fn bit_identical(cg: &CompiledGraph, pg: &ParallelGraph) -> bool {
    let k = 8u64;
    let n = (cg.init_outputs() + k * cg.outputs_per_iteration()) as usize;
    let need = cg.required_input(k).max(pg.required_input(k)) as usize;
    let input = varied_input(need);
    let serial = cg
        .run_collect(&input, n)
        .unwrap_or_else(|e| panic!("compiled check run failed: {e}"));
    let parallel = pg
        .run_collect(&input, n)
        .unwrap_or_else(|e| panic!("parallel check run failed: {e}"));
    serial.len() == parallel.len()
        && serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let out_path = argv
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| argv.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_parallel.json".into());
    let target_s = if quick { 0.02 } else { 0.25 };

    let apps: Vec<(&str, StreamNode)> = vec![
        ("fmradio", streamit::apps::fmradio::fmradio(10, 64)),
        ("filterbank", streamit::apps::filterbank::filterbank(8, 32)),
        (
            "beamformer",
            streamit::apps::beamformer::beamformer(12, 4, 32),
        ),
        ("bitonic", streamit::apps::bitonic::bitonic_sort(32)),
    ];

    let mut rows = Vec::new();
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>12} {:>12}",
        "app", "serial", "1 thread", "2 threads", "4 threads", "8 threads"
    );
    for (name, stream) in apps {
        let p = Compiler::default()
            .compile_stream(stream)
            .unwrap_or_else(|e| panic!("{name}: app graph must compile: {e}"));
        let cg = p
            .compile_exec()
            .unwrap_or_else(|e| panic!("{name}: compiled engine must accept this app: {e}"));
        let base = measure_compiled(&cg, target_s);
        let mut curve = Vec::new();
        let mut cells = Vec::new();
        for threads in THREAD_COUNTS {
            let pg = p
                .compile_parallel(threads)
                .unwrap_or_else(|e| panic!("{name}: parallel engine must accept this app: {e}"));
            let identical = bit_identical(&cg, &pg);
            let m = measure_parallel(&pg, target_s);
            let scaling = m.items_per_sec / base.items_per_sec.max(1e-9);
            cells.push(format!("{:>10.0}/s", m.items_per_sec));
            curve.push(format!(
                "        {{\"threads\": {threads}, \"stages\": {}, \"fissed_regions\": {}, \
                 \"bit_identical\": {identical}, \"items_per_sec\": {}, \"elapsed_s\": {}, \
                 \"outputs\": {}, \"iterations\": {}, \"scaling\": {}}}",
                pg.stages(),
                pg.fission_report().len(),
                json_f64(m.items_per_sec),
                json_f64(m.elapsed_s),
                m.outputs,
                m.iterations,
                json_f64(scaling),
            ));
        }
        println!(
            "{:<12} {:>12.0}/s {}",
            name,
            base.items_per_sec,
            cells.join(" ")
        );
        rows.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \
             \"serial\": {{\"items_per_sec\": {}, \"elapsed_s\": {}, \"outputs\": {}, \"iterations\": {}}},\n      \
             \"threads\": [\n{}\n      ]\n    }}",
            json_f64(base.items_per_sec),
            json_f64(base.elapsed_s),
            base.outputs,
            base.iterations,
            curve.join(",\n"),
        ));
    }

    let report = format!(
        "{{\n  \"benchmark\": \"parallel_scaling\",\n  \"host\": {},\n  \
         \"quick\": {quick},\n  \"apps\": [\n{}\n  ]\n}}\n",
        host_json(),
        rows.join(",\n")
    );
    std::fs::write(&out_path, &report).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
}
