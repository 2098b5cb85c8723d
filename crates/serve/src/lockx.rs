//! Explicit poison recovery for the std locks guarding server state.
//!
//! A panic while one of these locks is held (a handler bug, a simulated
//! crash from the schedule exerciser) poisons it; unwrapping the poison
//! would then turn **every later request on the shard** into a panic
//! cascade — one bad request taking down a whole shard's traffic.
//!
//! Recovering the guard and continuing is safe here because the
//! durability discipline never trusts these critical sections to be
//! atomic in memory: the WAL append happens *before* the ledger charge,
//! every map mutation is a single `HashMap` insert/remove (no
//! two-field states a panic can tear), and a section that died between
//! append and charge merely leaves a durable record no ack references —
//! recovery counts it, the safe direction. The budget invariants
//! (spent ≤ B, append-before-ack) hold at every panic point, so the
//! data under the lock is always consistent enough to keep serving; the
//! schedule exerciser's crash-then-continue test proves it.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};
use std::time::Duration;

pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

pub fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

pub fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    g: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(g, dur)
        .unwrap_or_else(PoisonError::into_inner)
}
