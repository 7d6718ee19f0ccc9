//! `mpshare-mps` — models of NVIDIA's GPU sharing mechanisms.
//!
//! This crate runs client programs under the sharing mechanisms the paper
//! evaluates (§II-B), on top of the `mpshare-gpusim` execution engine. The
//! MPS semantics live in one place, [`GpuRunner`] plus the engine: the
//! post-Volta 48-client limit (enforced by the engine), per-client *active
//! thread percentage* SM partitions ([`ActiveThreadPercentage`],
//! [`GpuSharing::Mps`]), memory bandwidth shared without isolation, and no
//! fault containment ([`FailureDomain`]).
//!
//! * [`runner`] — a uniform "run these programs under this sharing
//!   mechanism" entry point used by the profiler, scheduler, and harness.
//! * [`timeslice`] — the default time-sliced scheduler used when MPS is
//!   not running.
//! * [`mig`] — Multi-Instance GPU: hardware partitioning into up to seven
//!   isolated instances.

pub mod mig;
pub mod runner;
pub mod timeslice;

pub use mig::{MigInstance, MigLayout, MigProfile};
pub use runner::{ActiveThreadPercentage, FailureDomain, GpuRunner, GpuSharing};
pub use timeslice::TimeSliceConfig;
