//! Offline stand-in for `parking_lot` (0.12 API subset), backed by
//! `std::sync`.
//!
//! Differences from std that this wrapper papers over to match the
//! parking_lot API the workspace uses:
//!
//! * `lock()`, `read()`, and `write()` do not return poison `Result`s —
//!   a poisoned lock is recovered (`into_inner`), matching
//!   parking_lot's non-poisoning behavior closely enough for these
//!   callers.
//! * `Condvar::wait` takes `&mut MutexGuard` instead of consuming it.

use std::sync::{self, PoisonError};
use std::time::Instant;

/// Non-poisoning mutual-exclusion lock.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps `value` in a mutex.
    pub const fn new(value: T) -> Self {
        Mutex { inner: sync::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)) }
    }
}

/// RAII guard for [`Mutex`]. The inner std guard lives in an `Option`
/// so [`Condvar::wait`] can temporarily take it.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard present outside Condvar::wait")
    }
}

/// Condition variable usable with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar { inner: sync::Condvar::new() }
    }

    /// Atomically releases the guard's lock and waits for a
    /// notification, reacquiring before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present when waiting");
        let reacquired = self.inner.wait(std_guard).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(reacquired);
    }

    /// [`Self::wait`], giving up once `timeout` passes. The returned
    /// result reports whether the deadline elapsed.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Instant,
    ) -> WaitTimeoutResult {
        let std_guard = guard.inner.take().expect("guard present when waiting");
        let left = timeout.saturating_duration_since(Instant::now());
        let (reacquired, result) =
            self.inner.wait_timeout(std_guard, left).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(reacquired);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Whether a timed [`Condvar`] wait returned because its deadline passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` if the wait ended at its deadline rather than a
    /// notification.
    pub fn timed_out(self) -> bool {
        self.0
    }
}

/// Non-poisoning reader-writer lock.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wraps `value` in a reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock { inner: sync::RwLock::new(value) }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1u8, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
            true
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(t.join().unwrap());
    }
}
