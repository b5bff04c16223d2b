//! A small blocking synchronization primitive for bounded-admission
//! services.
//!
//! [`exec`](crate::exec) covers deterministic *compute* fan-out; this
//! module covers the complementary need of a long-running service front:
//! bounding how much work is admitted at once. [`Semaphore`] is a
//! counting gate for limiting concurrent holders of a resource (e.g. live
//! connections).
//!
//! It is a deliberately simple `Mutex` + `Condvar` construction: the
//! workloads it guards (finder/placer requests) run for milliseconds to
//! seconds, so lock-free cleverness would buy nothing. It never
//! influences computation results — it only schedules *when* work runs,
//! never *what* it produces.

use std::sync::{Condvar, Mutex};

/// A counting semaphore gating concurrent holders of a resource.
///
/// [`acquire`](Semaphore::acquire) blocks until a permit is free;
/// [`release`](Semaphore::release) returns one. The service runtime uses
/// this as the max-concurrent-connections gate: the acceptor takes a
/// permit before handing a socket to a connection handler and the handler
/// releases it when the connection closes, so excess clients wait in the
/// listen backlog instead of spawning unbounded handlers.
///
/// # Example
///
/// ```
/// use gtl_core::sync::Semaphore;
///
/// let gate = Semaphore::new(1);
/// gate.acquire();
/// assert!(!gate.try_acquire());
/// gate.release();
/// assert!(gate.try_acquire());
/// ```
#[derive(Debug)]
pub struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Self { permits: Mutex::new(permits), freed: Condvar::new() }
    }

    /// Takes one permit, blocking until one is available.
    pub fn acquire(&self) {
        let mut permits = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        while *permits == 0 {
            permits = self.freed.wait(permits).unwrap_or_else(|e| e.into_inner());
        }
        *permits -= 1;
    }

    /// Takes one permit without blocking; `false` if none are free.
    pub fn try_acquire(&self) -> bool {
        let mut permits = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        if *permits == 0 {
            return false;
        }
        *permits -= 1;
        true
    }

    /// Returns one permit, waking one waiter.
    pub fn release(&self) {
        let mut permits = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        *permits += 1;
        self.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn semaphore_bounds_concurrency() {
        let gate = Semaphore::new(2);
        gate.acquire();
        gate.acquire();
        assert!(!gate.try_acquire());
        gate.release();
        gate.acquire(); // immediate: a permit is free again
        gate.release();
        gate.release();
        assert!(gate.try_acquire());
    }

    #[test]
    fn semaphore_release_wakes_blocked_acquirer() {
        let gate = Semaphore::new(0);
        let entered = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                gate.acquire();
                entered.store(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(entered.load(Ordering::SeqCst), 0);
            gate.release();
        });
        assert_eq!(entered.load(Ordering::SeqCst), 1);
    }
}
