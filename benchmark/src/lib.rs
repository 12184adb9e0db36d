//! `wcbench`: the real WireCAP engine on real threads, five named
//! workloads, end-to-end metrics and a per-layer ladder. See
//! `benchmark/README.md`.

pub mod check;
pub mod compare;
pub mod frames;
pub mod hist;
pub mod json;
pub mod plan;
pub mod probes;
pub mod report;
pub mod spans;
pub mod suite;
pub mod sys;
pub mod wire;
pub mod workloads;
