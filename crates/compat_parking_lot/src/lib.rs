//! Minimal offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Exposes the subset of the API this workspace uses: [`RwLock`] and
//! [`Mutex`] with panic-free (non-poisoning) `lock`/`read`/`write`. Lock
//! poisoning is translated into propagating the inner data anyway, which
//! matches `parking_lot` semantics (it has no poisoning at all).
#![forbid(unsafe_code)]

use std::sync::{
    Mutex as StdMutex, MutexGuard, RwLock as StdRwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// A reader-writer lock with the `parking_lot` API shape.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(StdRwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new unlocked `RwLock`.
    pub const fn new(value: T) -> Self {
        RwLock(StdRwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard (never errors; poison is ignored).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Acquires an exclusive write guard (never errors; poison is ignored).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

/// A mutual-exclusion lock with the `parking_lot` API shape.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Creates a new unlocked `Mutex`.
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock (never errors; poison is ignored).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_read_write() {
        let lock = RwLock::new(1);
        assert_eq!(*lock.read(), 1);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 2);
        assert_eq!(lock.into_inner(), 2);
    }

    #[test]
    fn rwlock_shared_across_threads() {
        let lock = RwLock::new(0usize);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        *lock.write() += 1;
                    }
                });
            }
        });
        assert_eq!(*lock.read(), 400);
    }

    #[test]
    fn mutex_lock() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 6);
    }
}
