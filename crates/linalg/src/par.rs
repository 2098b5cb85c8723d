//! The core budget for the Monte-Carlo translator prepare.
//!
//! A translator-cache miss (`apex-mech`'s `McTranslator::with_operator`)
//! simulates its samples on the thread that asked for it, and idle cores
//! help. The budget is observed, not configured — there is no knob:
//!
//! * **Busy threads are counted.** A shard worker holds a [`busy`] mark
//!   while it routes a request, and a thread computing a miss holds one
//!   while it computes (a no-op on a worker that already holds one).
//! * **Helpers come only from idle cores.** A miss borrows at most
//!   `cores − busy threads − helpers already lent` helper threads
//!   ([`lend_helpers`]), taken with a compare-and-swap so two concurrent
//!   misses cannot both take the same idle core. With no idle core it
//!   gets none and spawns no thread.
//!
//! So a caller outside the service (a bench, `repro`, a test) that is
//! alone still gets every core, and a service whose workers are all
//! mid-request adds no thread to them. Every sample owns its RNG stream
//! and output slot, so the number of helpers changes wall-clock only,
//! never a result. The threads are `std::thread::scope` workers — no
//! external thread-pool dependency, which keeps the crate
//! offline-buildable.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Threads occupying a core: workers routing a request and threads
/// computing a miss.
static BUSY: AtomicUsize = AtomicUsize::new(0);
/// Helper threads lent to running prepares.
static LENT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread already holds a [`Busy`] mark.
    static MARKED: Cell<bool> = const { Cell::new(false) };
}

/// The cores a prepare may use: the host's available parallelism, read
/// once per process.
pub fn max_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Marks the calling thread busy until the guard drops — also when it
/// drops during a panic's unwinding. Nested marks on one thread count
/// once.
pub fn busy() -> Busy {
    let counted = !MARKED.replace(true);
    if counted {
        BUSY.fetch_add(1, Ordering::SeqCst);
    }
    Busy {
        counted,
        _thread: PhantomData,
    }
}

/// A thread's busy mark (see [`busy`]). It is released on the thread
/// that took it, so it is neither `Send` nor `Sync`.
#[must_use = "the mark is released when the guard drops"]
#[derive(Debug)]
pub struct Busy {
    counted: bool,
    _thread: PhantomData<*const ()>,
}

impl Drop for Busy {
    fn drop(&mut self) {
        if self.counted {
            BUSY.fetch_sub(1, Ordering::SeqCst);
            MARKED.set(false);
        }
    }
}

/// Threads that hold a busy mark right now.
pub fn busy_threads() -> usize {
    BUSY.load(Ordering::SeqCst)
}

/// Borrows up to `wanted` helper threads from idle cores: at most
/// `max_threads() − busy_threads() − helpers already lent`. The lease
/// returns them when it drops.
pub fn lend_helpers(wanted: usize) -> Helpers {
    let cores = max_threads();
    let mut lent = LENT.load(Ordering::SeqCst);
    loop {
        let idle = cores.saturating_sub(busy_threads() + lent);
        let n = wanted.min(idle);
        if n == 0 {
            return Helpers(0);
        }
        match LENT.compare_exchange_weak(lent, lent + n, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return Helpers(n),
            Err(now) => lent = now,
        }
    }
}

/// A lease of helper threads (see [`lend_helpers`]).
#[must_use = "the helpers are returned when the lease drops"]
#[derive(Debug)]
pub struct Helpers(usize);

impl Helpers {
    /// How many helpers the lease holds (possibly 0).
    pub fn count(&self) -> usize {
        self.0
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        LENT.fetch_sub(self.0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The budget is process-wide: its tests take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn an_unserved_caller_gets_every_core() {
        let _turn = serial();
        let _caller = busy();
        let helpers = lend_helpers(usize::MAX);
        assert_eq!(1 + helpers.count(), max_threads());
        drop(helpers);
        assert_eq!(LENT.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn concurrent_leases_never_take_the_same_idle_core() {
        let _turn = serial();
        let cores = max_threads();
        let _caller = busy();
        let first = lend_helpers(usize::MAX);
        let second = lend_helpers(usize::MAX);
        assert_eq!(first.count(), cores - 1);
        assert_eq!(second.count(), 0);
        drop(first);
        assert_eq!(lend_helpers(1).count(), usize::from(cores > 1));
    }

    #[test]
    fn busy_threads_shrink_the_lease_and_nested_marks_count_once() {
        let _turn = serial();
        let cores = max_threads();
        let workers = cores + 1;
        let marked = std::sync::Barrier::new(workers + 1);
        let done = std::sync::Barrier::new(workers + 1);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let _worker = busy();
                    let _nested = busy();
                    marked.wait();
                    done.wait();
                });
            }
            marked.wait();
            assert_eq!(busy_threads(), workers);
            assert_eq!(lend_helpers(usize::MAX).count(), 0);
            done.wait();
        });
        assert_eq!(busy_threads(), 0);
    }

    #[test]
    fn a_panic_releases_the_mark() {
        let _turn = serial();
        let caught = std::thread::spawn(|| {
            std::panic::catch_unwind(|| {
                let _worker = busy();
                panic!("route failed");
            })
            .is_err()
        });
        assert!(caught.join().unwrap());
        assert_eq!(busy_threads(), 0);
    }
}
