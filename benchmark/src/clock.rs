//! The benchmark's one host clock. Host time is what the benchmark
//! measures; nothing read here feeds back into simulation state.

pub use std::time::Instant;

/// The current host instant.
pub fn now() -> Instant {
    // dcs-lint: allow(wall-clock) — the benchmark measures host time of the simulator; readings never reach simulation state
    Instant::now()
}
