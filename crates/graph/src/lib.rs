//! # streamit-graph
//!
//! The intermediate representation of the StreamIt-rs compiler.
//!
//! A stream program is a *hierarchical* graph built from four constructs,
//! exactly as in the paper:
//!
//! * [`Filter`] — the basic unit of computation.  On each invocation of its
//!   *work function* it peeks at `peek` items of its input tape, pops `pop`
//!   of them, and pushes `push` items onto its output tape.
//! * [`Pipeline`] — a sequential composition of streams.
//! * [`SplitJoin`] — parallel streams between a [`Splitter`] and a
//!   [`Joiner`].
//! * [`FeedbackLoop`] — a cycle through a joiner, a body, a splitter and a
//!   loopback stream, primed by `delay` initial items (`initPath`).
//!
//! Every construct has a single input and a single output, so constructs
//! compose recursively ([`StreamNode`]).
//!
//! Filter bodies are represented by a small imperative *work-function IR*
//! ([`work::Stmt`], [`work::Expr`]) rich enough to express the benchmark
//! suite (static loops, arrays, intrinsics, teleport-message sends) and
//! simple enough for the linear-extraction analysis in `streamit-linear`
//! to abstractly interpret.
//!
//! The hierarchical graph is lowered to a [`flat::FlatGraph`] — filters
//! plus explicit splitter/joiner nodes connected by typed channels — which
//! is the form consumed by the scheduler, the SDEP analysis and the
//! machine simulator.  [`fuse`] rewrites it for the compiled engines,
//! replacing round-robin split-joins of plain filters with one filter.

pub mod builder;
pub mod display;
pub mod filter;
pub mod flat;
pub mod fuse;
pub mod kernel;
pub mod steady;
pub mod stream;
pub mod types;
pub mod validate;
pub mod work;

pub use filter::{Filter, Handler, PreWork, StateInit, StateVar};
pub use flat::{Edge, EdgeId, FlatGraph, FlatNode, FlatNodeKind, NodeId};
pub use fuse::FusedSplitJoin;
pub use kernel::{KernelRow, KernelSpec};
pub use steady::{repetition_vector, steady_flows, SteadyError};
pub use stream::{FeedbackLoop, Joiner, Pipeline, SplitJoin, Splitter, StreamNode};
pub use types::{DataType, Value};
pub use validate::{validate, ValidationError};
pub use work::{BinOp, Expr, Intrinsic, LValue, Stmt, UnOp};
