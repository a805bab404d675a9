//! The one sanctioned door to the wall clock.
//!
//! Analysis *results* must never depend on wall-clock time, but two governed
//! features legitimately read it: `Budget` deadlines and the supervisor
//! watchdog (both opt-in, both documented to trade determinism for liveness).
//! Span timings read it too, for export only. All of them call [`now`]
//! instead of `Instant::now()` so that `ci.sh` can grep the rest of the
//! workspace for stray clock reads.

use std::time::Instant;

/// Read the monotonic clock.
#[inline]
#[must_use]
pub fn now() -> Instant {
    Instant::now()
}
