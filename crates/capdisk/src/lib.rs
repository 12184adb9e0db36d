//! # capdisk — the capture-to-disk subsystem
//!
//! WireCAP's capture-and-save experiment (§4 of the paper) streams
//! captured traffic to disk while measuring what the extra work costs
//! the capture path. This crate is that subsystem for the live engine:
//!
//! * [`mod@format`] — pcap / pcapng block encoders that append into batch
//!   buffers (plus a strict pcapng reader for verification);
//! * [`writer`] — the rotating, double-buffered file writer: one
//!   `write` syscall per chunk batch, size/time rotation at batch
//!   boundaries, every emitted file self-contained;
//! * [`sink`] — the per-queue drainer/writer thread pairs with a
//!   bounded handoff ring and the graceful-degradation drop policy
//!   (every shed packet counted in `disk_drop_packets`), attached to a
//!   running [`wirecap::live::LiveWireCap`].
//!
//! The design invariant: **the disk can be arbitrarily slow and the
//! capture path never blocks** — a full handoff ring sheds chunks from
//! the disk leg only, explicitly counted, never silently.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod format;
pub mod sink;
pub mod writer;

pub use format::{read_pcapng, EpbTemplate, FileFormat, PcapngFile};
pub use sink::{DiskReport, DiskSink, DiskSinkConfig, QueueDiskReport, SinkMode};
pub use writer::{RotatingWriter, RotationPolicy};
