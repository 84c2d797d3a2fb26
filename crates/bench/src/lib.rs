//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§6).
//!
//! * [`figures`] — the scaling experiments (Figures 4–10), run on the
//!   simulated machine across node counts and runtime configurations,
//!   parallelized over a work-stealing pool;
//! * [`machine_scale`] — the weak-scaling sweep of the raw DES at
//!   16k–1M simulated nodes (`figures -- scale`), printed as a table;
//! * [`tables`] — the dynamic-check microbenchmarks (Tables 2–3),
//!   measured in real wall-clock time on this machine (no simulation —
//!   the checks are ordinary single-node code);
//! * [`render`] — ASCII tables and CSV output.
//!
//! Regenerate everything with `cargo run -p il-bench --release --bin
//! figures -- all`; see `EXPERIMENTS.md` for paper-vs-measured notes.
//! Performance is recorded by the `perfbench` benchmark
//! (`BENCHMARK.json`, `perfbench/METRICS.md`), not by this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod machine_scale;
pub mod render;
pub mod tables;

pub use figures::{FigPoint, Figure};
pub use machine_scale::{weak_scaling, ScalePoint, ScaleSweep};
pub use tables::{extrapolate_checks, table2, table3, TableRow};
