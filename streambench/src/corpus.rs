//! The programs `compile-corpus` compiles: 24 generated source texts
//! and the 15 builder-API applications.
//!
//! The seed picks every coefficient, every `enqueue`d value and the
//! order of the programs.  It does not pick sizes: each template is
//! instantiated once at each of eight fixed sizes, so every seed asks
//! the compiler for the same amount of work and two seeds' compile
//! times can be compared.

use std::fmt::Write as _;

use streamit::apps;

use crate::compile::Source;
use crate::prng::Rng;

/// One program of the corpus.
pub struct Program {
    pub name: String,
    pub source: Source,
    /// Also compiled under `LinearMode::Frequency` (the FIR subset).
    pub linear: bool,
}

const FIR: &str = r#"
float->float filter Fir(int N, float scale) {
    float[N] h;
    init { for (int i = 0; i < N; i++) h[i] = scale / (i + 1); }
    work peek N pop 1 push 1 {
        float s = 0.0;
        for (int i = 0; i < N; i++) s += peek(i) * h[i];
        push(s);
        pop();
    }
}
"#;

/// A coefficient with a fixed number of digits, so that the length of
/// the source text does not depend on the seed.
fn coeff(rng: &mut Rng, lo: f64, hi: f64) -> String {
    format!("{:.6}", rng.range(lo, hi))
}

/// Template 1: a pipeline of `depth` FIR filters (depth 4 to 32).
fn fir_pipeline(depth: usize, rng: &mut Rng) -> String {
    const TAPS: [usize; 4] = [8, 16, 24, 32];
    let mut s = String::from(FIR);
    s.push_str("float->float pipeline Main() {\n");
    for i in 0..depth {
        let _ = writeln!(s, "    add Fir({}, {});", TAPS[i % 4], coeff(rng, 0.5, 1.5));
    }
    s.push_str("}\n");
    s
}

/// Template 2: a duplicate split-join of `width` peeking FIR branches
/// with `taps` taps each, summed (width 2 to 16, taps 8 to 128).
fn peeking_splitjoin(width: usize, taps: usize, rng: &mut Rng) -> String {
    let mut s = String::from(FIR);
    s.push_str("float->float splitjoin Bank() {\n    split duplicate;\n");
    for _ in 0..width {
        let _ = writeln!(s, "    add Fir({taps}, {});", coeff(rng, 0.5, 1.5));
    }
    s.push_str("    join roundrobin;\n}\n");
    let _ = write!(
        s,
        r#"float->float filter Sum(int W) {{
    work pop W push 1 {{
        float s = 0.0;
        for (int i = 0; i < W; i++) s += pop();
        push(s);
    }}
}}
float->float pipeline Main() {{
    add Bank();
    add Sum({width});
}}
"#
    );
    s
}

/// Template 3: a primed feedback loop, an echo whose loop path is a
/// pipeline of `stages` gains and whose delay is `stages` enqueued items.
fn feedback_loop(stages: usize, rng: &mut Rng) -> String {
    let mut s = String::from(
        r#"
float->float filter Mix(float a) {
    work pop 2 push 1 {
        float x = pop();
        float fb = pop();
        push(x + a * fb);
    }
}
float->float filter Gain(float g) {
    work pop 1 push 1 { push(pop() * g); }
}
float->float pipeline LoopPath() {
"#,
    );
    for _ in 0..stages {
        let _ = writeln!(s, "    add Gain({});", coeff(rng, 0.80, 0.99));
    }
    let _ = write!(
        s,
        r#"}}
float->float feedbackloop Main() {{
    join roundrobin(1, 1);
    body Mix({});
    split duplicate;
    loop LoopPath();
"#,
        coeff(rng, 0.10, 0.90)
    );
    for _ in 0..stages {
        let _ = writeln!(s, "    enqueue {};", coeff(rng, 0.10, 0.90));
    }
    s.push_str("}\n");
    s
}

/// The 24 generated programs for `seed`, in seeded order.
pub fn generated(rng: &Rng) -> Vec<Program> {
    let mut rng = rng.fork(0xC0);
    let mut out = Vec::with_capacity(24);
    for (i, depth) in [4, 8, 12, 16, 20, 24, 28, 32].into_iter().enumerate() {
        out.push(Program {
            name: format!("gen-fir-pipeline-{i}"),
            source: Source::Text(fir_pipeline(depth, &mut rng)),
            linear: true,
        });
    }
    // Wide banks get short filters and narrow banks long ones, so no
    // program dwarfs the others.
    let shapes = [
        (2, 128),
        (4, 96),
        (6, 64),
        (8, 48),
        (10, 32),
        (12, 24),
        (14, 16),
        (16, 8),
    ];
    for (i, (width, taps)) in shapes.into_iter().enumerate() {
        out.push(Program {
            name: format!("gen-peeking-splitjoin-{i}"),
            source: Source::Text(peeking_splitjoin(width, taps, &mut rng)),
            linear: false,
        });
    }
    for (i, stages) in (1..=8).enumerate() {
        out.push(Program {
            name: format!("gen-feedback-loop-{i}"),
            source: Source::Text(feedback_loop(stages, &mut rng)),
            linear: false,
        });
    }
    rng.shuffle(&mut out);
    out
}

/// The 15 builder-API applications at the sizes `tests/exec_equivalence.rs`
/// uses.
pub fn applications() -> Vec<Program> {
    let app = |name: &str, linear: bool, source: Source| Program {
        name: name.to_string(),
        source,
        linear,
    };
    vec![
        app(
            "beamformer",
            false,
            Source::builder(|| apps::beamformer::beamformer(12, 4, 32)),
        ),
        app(
            "bitonic",
            false,
            Source::builder(|| apps::bitonic::bitonic_sort(32)),
        ),
        app(
            "channelvocoder",
            false,
            Source::builder(|| apps::channelvocoder::channelvocoder(4, 8)),
        ),
        app("dct", false, Source::builder(|| apps::dct::dct(16))),
        app("des", false, Source::builder(|| apps::des::des(4))),
        app("fft", false, Source::builder(|| apps::fft_app::fft(32))),
        app(
            "filterbank",
            true,
            Source::builder(|| apps::filterbank::filterbank(8, 32)),
        ),
        app(
            "fmradio",
            true,
            Source::builder(|| apps::fmradio::fmradio(10, 64)),
        ),
        app(
            "freqhop_teleport",
            false,
            Source::builder(|| apps::freqhop::freqhop_teleport(8, 4)),
        ),
        app(
            "freqhop_manual",
            false,
            Source::builder(|| apps::freqhop::freqhop_manual(8)),
        ),
        app("mpeg2", false, Source::builder(apps::mpeg2::mpeg2)),
        app("radar", false, Source::builder(|| apps::radar::radar(4, 2))),
        app(
            "serpent",
            false,
            Source::builder(|| apps::serpent::serpent(4)),
        ),
        app("tde", false, Source::builder(|| apps::tde::tde(32))),
        app(
            "vocoder",
            false,
            Source::builder(|| apps::vocoder::vocoder(8)),
        ),
    ]
}

/// The whole corpus for `seed`: generated programs, then applications.
pub fn corpus(rng: &Rng) -> Vec<Program> {
    let mut all = generated(rng);
    all.extend(applications());
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, options};

    fn texts(seed: u64) -> Vec<(String, String)> {
        generated(&Rng::new(seed))
            .into_iter()
            .map(|p| match p.source {
                Source::Text(t) => (p.name, t),
                Source::Builder(_) => unreachable!("generated programs are text"),
            })
            .collect()
    }

    #[test]
    fn the_seed_changes_text_and_order_but_not_size() {
        let (a, b, a2) = (texts(1), texts(2), texts(1));
        assert_eq!(a, a2, "one seed, one corpus");
        assert_ne!(a, b);
        assert_eq!(a.len(), 24);
        let sizes = |c: &[(String, String)]| {
            let mut v: Vec<(String, usize)> = c.iter().map(|(n, t)| (n.clone(), t.len())).collect();
            v.sort();
            v
        };
        assert_eq!(sizes(&a), sizes(&b), "every seed asks for the same work");
    }

    #[test]
    fn every_program_compiles() {
        for p in corpus(&Rng::new(9)) {
            compile(&p.source, options(None)).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }
}
