//! Steady-state allocation audit hooks.
//!
//! The pass interpreter ([`crate::schedule::run_pass_with`]) and the
//! single-GPU column sweeps are designed to be allocation-free: every
//! buffer they touch — ledger accumulators, diagonal-solve scratch, send
//! payloads, the interpreter's own queues — is sized during per-pass
//! setup. This module lets a test binary *prove* that: the hot regions
//! mark themselves with [`pass_scope`], and a counting `#[global_allocator]`
//! installed by the test (see `tests/alloc_audit.rs`) calls [`on_alloc`]
//! on every heap allocation, which counts only while the current thread is
//! inside a scope.
//!
//! Pass *setup* has a budget instead of a zero: [`setup_scope`] brackets
//! one pass's engine construction and records how far its allocations
//! exceeded the one-per-`Arc`-payload part of the budget.
//!
//! Outside the audit test this is a few thread-local `Cell` accesses per
//! pass — effectively free, and allocation-safe to call from inside a
//! global allocator (const-initialized TLS, no lazy allocation).

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

thread_local! {
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
    static IN_SETUP: Cell<bool> = const { Cell::new(false) };
    static SETUP_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Total allocations observed inside audit scopes, across all threads.
static SCOPED_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Largest `allocations − payloads` over finished setup scopes.
static SETUP_EXCESS: AtomicI64 = AtomicI64::new(i64::MIN);

/// RAII marker: the current thread is in a steady-state region. Nested
/// scopes are tolerated (the outermost wins).
pub struct PassScope {
    prev: bool,
}

/// Enter the steady-state region on this thread.
pub fn pass_scope() -> PassScope {
    let prev = IN_SCOPE.with(|f| f.replace(true));
    PassScope { prev }
}

impl Drop for PassScope {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_SCOPE.with(|f| f.set(prev));
    }
}

/// Record one heap allocation; counted only if this thread is inside a
/// [`pass_scope`]. Called by the audit test's global allocator — must not
/// allocate (it would recurse).
#[inline]
pub fn on_alloc() {
    // `try_with`: TLS may be gone during thread teardown; allocations
    // there are outside any scope by definition.
    let scoped = IN_SCOPE.try_with(|f| f.get()).unwrap_or(false);
    if scoped {
        SCOPED_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    if IN_SETUP.try_with(|f| f.get()).unwrap_or(false) {
        let _ = SETUP_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Drain the cross-thread scoped-allocation counter (returns the count
/// since the previous call and resets it to zero).
pub fn take_scoped_allocs() -> u64 {
    SCOPED_ALLOCS.swap(0, Ordering::Relaxed)
}

/// RAII marker around one pass's engine setup on this thread.
pub struct SetupScope {
    payloads: u64,
    start: u64,
}

/// Enter a pass setup that builds `payloads` `Arc` send buffers.
pub fn setup_scope(payloads: usize) -> SetupScope {
    IN_SETUP.with(|f| f.set(true));
    SetupScope {
        payloads: payloads as u64,
        start: SETUP_ALLOCS.with(Cell::get),
    }
}

impl Drop for SetupScope {
    fn drop(&mut self) {
        IN_SETUP.with(|f| f.set(false));
        let allocs = SETUP_ALLOCS.with(Cell::get) - self.start;
        SETUP_EXCESS.fetch_max(allocs as i64 - self.payloads as i64, Ordering::Relaxed);
    }
}

/// Drain the setup record: the largest `allocations − payloads` of any
/// pass setup since the previous call, `None` if none ran.
pub fn take_setup_excess() -> Option<i64> {
    let worst = SETUP_EXCESS.swap(i64::MIN, Ordering::Relaxed);
    (worst != i64::MIN).then_some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_gates_counting() {
        let _ = take_scoped_allocs();
        on_alloc();
        assert_eq!(take_scoped_allocs(), 0, "outside scope: not counted");
        {
            let _s = pass_scope();
            on_alloc();
            on_alloc();
        }
        on_alloc();
        assert_eq!(take_scoped_allocs(), 2, "only in-scope events count");
    }

    #[test]
    fn scopes_nest() {
        let _ = take_scoped_allocs();
        let outer = pass_scope();
        {
            let _inner = pass_scope();
            on_alloc();
        }
        // Still inside the outer scope after the inner one drops.
        on_alloc();
        drop(outer);
        on_alloc();
        assert_eq!(take_scoped_allocs(), 2);
    }
}
