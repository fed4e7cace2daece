//! # streamit-sched
//!
//! Scheduling and parallelization: everything between the flat stream
//! graph and the simulated Raw machine.
//!
//! * [`estimate`] — static work estimation: a per-operation cycle cost
//!   model applied to work-function IR, yielding cycles and FLOPs per
//!   firing (the paper's "static work estimation strategy").
//! * [`workgraph`] — the coarse-grained [`workgraph::WorkGraph`]:
//!   filters and synchronization nodes annotated with work per steady
//!   state, supporting *fusion* (contracting regions into one node) and
//!   *fission* (data-parallel replication of stateless nodes, with
//!   sliding-window duplication for peeking filters).
//! * [`partition`] — the parallelization strategies evaluated in the
//!   paper: task parallelism, fine- and coarse-grained data parallelism,
//!   coarse-grained software pipelining (selective fusion + bin
//!   packing), their combination, and the ASPLOS'02 space-multiplexing
//!   baseline.
//! * [`mod@characterize`] — the benchmark-characteristics measurements of
//!   Figure `benchchar` (filter counts, peeking/stateful filters, path
//!   lengths, computation-to-communication ratio, stateful work %).

pub mod characterize;
pub mod estimate;
pub mod partition;
pub mod workgraph;

pub use characterize::{characterize, BenchCharacteristics};
pub use estimate::{estimate_filter, WorkEstimate};
pub use partition::{
    coarse_fission_degrees, combined_partition, data_parallel_partition, fine_grained_partition,
    pipeline_stage_partition, software_pipeline, space_multiplex, task_parallel_partition,
    ExecModel, FissionCandidate, MappedProgram, Strategy, COARSE_GRAIN,
};
pub use workgraph::{WorkGraph, WorkNode};
