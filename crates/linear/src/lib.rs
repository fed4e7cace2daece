//! # streamit-linear
//!
//! The paper's aggressive optimizations for *linear* sections of stream
//! programs:
//!
//! * [`rep`] — the linear representation `⟨A, b, peek, pop, push⟩`: a
//!   filter is linear when each of its outputs is an affine combination
//!   of its inputs, `out = A·x + b`.
//! * [`extract`] — **linear extraction**: an abstract interpretation of
//!   the work-function IR over an affine-value domain that automatically
//!   detects linear filters from their C-like code.
//! * [`combine`] — **linear combination**: collapsing neighbouring
//!   linear nodes (pipelines; duplicate-splitter/round-robin-joiner
//!   split-joins) into a single linear node, eliminating redundant
//!   computation.
//! * [`fft`] — a radix-2 complex FFT, built from scratch as the
//!   substrate for frequency translation, and the real-input transform
//!   (one half-size complex FFT) the compiled engine's kernels run.
//! * [`freq`] — **frequency translation**: executing convolution-style
//!   linear nodes in the frequency domain by overlap-save block
//!   convolution, with the cost model that decides when the translation
//!   pays off.
//! * [`optimize`] — the driver that walks a stream graph, extracts,
//!   combines, and replaces linear regions (the compiler's
//!   `--linearreplacement` / `--frequencyreplacement` passes), with a
//!   report of everything it did.

pub mod combine;
pub mod extract;
pub mod fft;
pub mod freq;
pub mod optimize;
pub mod rep;

pub use combine::{combine_pipeline, combine_splitjoin};
pub use extract::extract_linear;
pub use fft::Fft;
pub use freq::{direct_cost_per_output, freq_cost_per_output, FreqFilter};
pub use optimize::{optimize_stream, LinearMode, LinearReport};
pub use rep::LinearRep;
