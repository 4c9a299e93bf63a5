//! Poison-recovering lock helpers for the serving path.
//!
//! A worker panic poisons every `Mutex`/`RwLock` it held or later
//! touches via `PoisonError`. The serving path must keep degrading
//! gracefully after such a panic — the engine already retains the
//! request's trace tree and fails the in-flight request — so these helpers recover the
//! guard instead of unwrapping, which would cascade the panic into every
//! other worker that touches the same lock (and abort the process when
//! it happens inside a panic hook).
//!
//! Recovery is sound here because every critical section in this crate
//! is small and allocation-level: insert/remove on a map, rotate a
//! deque. A panic cannot leave those structures
//! half-updated in a way that violates their own invariants (the data
//! structure methods don't panic mid-rebalance); at worst one logical
//! entry (the panicking request's own) is missing, which the engine
//! already treats as a failed request.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Locks `mutex`, recovering the guard if a panicking thread poisoned it.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `rwlock`, recovering the guard if poisoned.
pub(crate) fn read_unpoisoned<T>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `rwlock`, recovering the guard if poisoned.
pub(crate) fn write_unpoisoned<T>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `condvar`, recovering the reacquired guard if poisoned.
pub(crate) fn wait_unpoisoned<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn poison<T: Send + 'static>(lock: &Arc<Mutex<T>>) {
        let lock = Arc::clone(lock);
        std::thread::spawn(move || {
            let _guard = lock.lock().unwrap();
            panic!("poison");
        })
        .join()
        .unwrap_err();
    }

    #[test]
    fn mutex_recovers_after_poison() {
        let lock = Arc::new(Mutex::new(7usize));
        poison(&lock);
        assert!(lock.is_poisoned());
        assert_eq!(*lock_unpoisoned(&lock), 7);
        *lock_unpoisoned(&lock) = 8;
        assert_eq!(*lock_unpoisoned(&lock), 8);
    }

    #[test]
    fn rwlock_recovers_after_poison() {
        let lock = Arc::new(RwLock::new(vec![1, 2]));
        {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let _guard = lock.write().unwrap();
                panic!("poison");
            })
            .join()
            .unwrap_err();
        }
        assert!(lock.is_poisoned());
        assert_eq!(read_unpoisoned(&lock).len(), 2);
        write_unpoisoned(&lock).push(3);
        assert_eq!(read_unpoisoned(&lock).len(), 3);
    }

    #[test]
    fn condvar_wait_recovers_after_poison() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        // Poison the mutex first.
        let poisoner = Arc::clone(&pair);
        std::thread::spawn(move || {
            let _guard = poisoner.0.lock().unwrap();
            panic!("poison");
        })
        .join()
        .unwrap_err();
        assert!(pair.0.is_poisoned());

        // A waiter must still wake up with a usable guard.
        let notifier = Arc::clone(&pair);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            *lock_unpoisoned(&notifier.0) = true;
            notifier.1.notify_all();
        });
        let mut ready = lock_unpoisoned(&pair.0);
        while !*ready {
            ready = wait_unpoisoned(&pair.1, ready);
        }
        drop(ready);
        waker.join().unwrap();
    }
}
