//! # streamit-apps
//!
//! The StreamIt-rs benchmark suite: faithful structural
//! re-implementations of the twelve applications of the paper's
//! evaluation (Figure `benchchar`), plus BeamFormer (used in the
//! comparison against space multiplexing) and the frequency-hopping
//! radio (teleport messaging).
//!
//! Each module exposes
//!
//! * `NAME()` — the core stream graph (external input/output tapes, so
//!   tests can drive it through the interpreter), and
//! * `NAME_with_io()` — the same graph wrapped with synthetic
//!   file-reader/file-writer endpoint filters, the form used by the
//!   parallelization evaluation (endpoints are not mapped to compute
//!   tiles, exactly as in the paper).
//!
//! The graphs reconstruct each benchmark's published shape — filter
//! counts, peeking windows, stateful kernels, split widths — and their
//! kernels compute real data (the bitonic network sorts, the DES rounds
//! permute and substitute, the DCT is exact), verified by the tests in
//! each module and the integration suite.

pub mod beamformer;
pub mod bitonic;
pub mod channelvocoder;
pub mod common;
pub mod dct;
pub mod des;
pub mod dsl;
pub mod fft_app;
pub mod filterbank;
pub mod fmradio;
pub mod freqhop;
pub mod linear_suite;
pub mod mpeg2;
pub mod radar;
pub mod serpent;
pub mod tde;
pub mod vocoder;

use streamit_graph::StreamNode;

/// One app of the differential corpus: the core graph (external input
/// and output tapes), built on demand, and how long an output prefix
/// the engine differentials compare on it.
pub struct CorpusApp {
    pub name: &'static str,
    build: fn() -> StreamNode,
    pub prefix: usize,
}

impl CorpusApp {
    pub fn graph(&self) -> StreamNode {
        (self.build)()
    }
}

/// The fifteen benchmark graphs — the twelve-application evaluation
/// suite at test-sized parameters, BeamFormer and both
/// frequency-hopping radios.  Every differential suite, the `paper`
/// harness and `streamd`'s builtin registry read this one list.
pub fn corpus() -> &'static [CorpusApp] {
    const fn app(name: &'static str, build: fn() -> StreamNode, prefix: usize) -> CorpusApp {
        CorpusApp {
            name,
            build,
            prefix,
        }
    }
    const CORPUS: [CorpusApp; 15] = [
        app("beamformer", || beamformer::beamformer(12, 4, 32), 16),
        app("bitonic", || bitonic::bitonic_sort(32), 32),
        app(
            "channelvocoder",
            || channelvocoder::channelvocoder(4, 8),
            16,
        ),
        app("dct", || dct::dct(16), 16),
        app("des", || des::des(4), 16),
        app("fft", || fft_app::fft(32), 16),
        app("filterbank", || filterbank::filterbank(8, 32), 16),
        app("fmradio", || fmradio::fmradio(10, 64), 16),
        app("freqhop_teleport", || freqhop::freqhop_teleport(8, 4), 8),
        app("freqhop_manual", || freqhop::freqhop_manual(8), 8),
        app("mpeg2", mpeg2::mpeg2, 16),
        app("radar", || radar::radar(4, 2), 8),
        app("serpent", || serpent::serpent(4), 16),
        app("tde", || tde::tde(32), 16),
        app("vocoder", || vocoder::vocoder(8), 8),
    ];
    &CORPUS
}

/// The four corpus apps every engine must accept: the throughput cells
/// of `paper host` measure them, `streamd` serves them by name, and the
/// differential suites refuse a decline on them.
pub const THROUGHPUT_APPS: [&str; 4] = ["fmradio", "filterbank", "beamformer", "bitonic"];

/// The corpus app called `name`.  Panics on a name outside the corpus:
/// callers name apps in source, not from input.
pub fn corpus_app(name: &str) -> &'static CorpusApp {
    corpus()
        .iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not in apps::corpus()"))
}

/// A named benchmark with its evaluation graph.
pub struct Benchmark {
    pub name: &'static str,
    /// Graph with I/O endpoint filters, as evaluated.
    pub stream: StreamNode,
}

/// The twelve-application evaluation suite, in the paper's order
/// (ascending stateful work).
pub fn evaluation_suite() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "BitonicSort",
            stream: bitonic::bitonic_sort_with_io(32),
        },
        Benchmark {
            name: "FFT",
            stream: fft_app::fft_with_io(128),
        },
        Benchmark {
            name: "DES",
            stream: des::des_with_io(16),
        },
        Benchmark {
            name: "Serpent",
            stream: serpent::serpent_with_io(32),
        },
        Benchmark {
            name: "TDE",
            stream: tde::tde_with_io(64),
        },
        Benchmark {
            name: "DCT",
            stream: dct::dct_with_io(16),
        },
        Benchmark {
            name: "FilterBank",
            stream: filterbank::filterbank_with_io(8, 32),
        },
        Benchmark {
            name: "FMRadio",
            stream: fmradio::fmradio_with_io(10, 64),
        },
        Benchmark {
            name: "ChannelVocoder",
            stream: channelvocoder::channelvocoder_with_io(16, 64),
        },
        Benchmark {
            name: "MPEG2Decoder",
            stream: mpeg2::mpeg2_with_io(),
        },
        Benchmark {
            name: "Vocoder",
            stream: vocoder::vocoder_with_io(16),
        },
        Benchmark {
            name: "Radar",
            stream: radar::radar_with_io(12, 4),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_fifteen_distinct_apps_including_the_throughput_four() {
        let names: std::collections::BTreeSet<_> = corpus().iter().map(|a| a.name).collect();
        assert_eq!((corpus().len(), names.len()), (15, 15));
        for name in THROUGHPUT_APPS {
            assert_eq!(corpus_app(name).name, name);
        }
    }
}
