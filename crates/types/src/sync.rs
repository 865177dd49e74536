//! Lock acquisition that survives poisoning.
//!
//! A sweep isolates a panicking shard worker and retries its shard (see
//! `ruwhere-scan`). The worker may have held a shared lock when it
//! panicked — a zone set, the serving map, the symbol table, an NS-cache
//! shard — and `std::sync` then marks that lock poisoned. Shard isolation
//! needs those locks to stay usable, so a poisoned lock is taken as it
//! is. This module is the one place that rule lives: acquire workspace
//! locks through [`read()`], [`write()`] and [`lock()`], never with a bare
//! `.unwrap()`.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquire a shared read guard on `lock`, recovering it if poisoned.
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire an exclusive write guard on `lock`, recovering it if poisoned.
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire `mutex`, recovering it if poisoned.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn poisoned_locks_stay_usable_and_keep_the_last_write() {
        let mutex = Arc::new(Mutex::new(0u32));
        let m = Arc::clone(&mutex);
        let died = thread::spawn(move || {
            let mut g = lock(&m);
            *g = 7;
            panic!("worker dies holding the mutex");
        })
        .join();
        assert!(died.is_err());
        assert!(mutex.is_poisoned());
        assert_eq!(*lock(&mutex), 7);
        *lock(&mutex) += 1;
        assert_eq!(*lock(&mutex), 8);

        let rw = Arc::new(RwLock::new(String::from("before")));
        let r = Arc::clone(&rw);
        let died = thread::spawn(move || {
            let mut g = write(&r);
            g.push_str(", during");
            panic!("worker dies holding the write guard");
        })
        .join();
        assert!(died.is_err());
        assert!(rw.is_poisoned());
        assert_eq!(*read(&rw), "before, during");
        write(&rw).push_str(", after");
        assert_eq!(*read(&rw), "before, during, after");
    }
}
