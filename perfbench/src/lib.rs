//! End-to-end and per-layer benchmark of the pdFTSP auction service.
//!
//! The package drives the library from outside, through its public
//! entry points, over two seeded workloads (see `README.md`), checks
//! every outcome against computations of its own, and prints one JSON
//! line of metrics.

pub mod checks;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
