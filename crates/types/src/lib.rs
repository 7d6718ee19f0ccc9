//! Shared units, identifiers, and error types for the `mpshare` workspace.
//!
//! Every crate in the workspace speaks in these newtypes so that seconds,
//! joules, watts, mebibytes, and utilization percentages can never be mixed
//! up silently. All quantities are `f64` internally (the simulator is a
//! piecewise-constant-rate model, not a cycle-accurate one), but the
//! constructors enforce the obvious domain invariants (non-negative time,
//! percentages clamped to `[0, 100]`, …).

pub mod error;
pub mod ids;
pub mod units;

pub use error::{Error, Result};
pub use ids::{GpuId, IdAllocator, TaskId};
pub use units::{Energy, Fraction, MemBytes, Percent, Power, Seconds};
