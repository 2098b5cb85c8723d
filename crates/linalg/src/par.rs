//! The thread budget for the Monte-Carlo translator prepare.
//!
//! The prepare (`apex-mech`'s `unit_errors_operator_blocked`) splits its
//! samples across `std::thread::scope` workers — no external thread-pool
//! dependency, which keeps the crate offline-buildable. Every sample owns
//! its RNG stream and output slot, so the thread count changes wall-clock
//! only, never a result.

/// Worker threads a prepare may use: the host's available parallelism.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
