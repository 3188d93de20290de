//! Per-thread observability suppression.
//!
//! [`suppress`] turns every metric update and trace record on the
//! calling thread into a no-op. It is the baseline of the overhead
//! guard (`obs_overhead --check` runs the same search with and without
//! it) and keeps `benchmark/`'s replay out of the registry. The search
//! itself does not use it: the code its workers run records nothing.

use std::cell::Cell;

thread_local! {
    static SUPPRESSED: Cell<bool> = const { Cell::new(false) };
}

/// Whether observability output is suppressed on this thread.
#[inline]
pub fn suppressed() -> bool {
    SUPPRESSED.with(Cell::get)
}

/// Runs `f` with metrics and tracing suppressed on this thread.
///
/// Panic-safe: the previous suppression state is restored even if `f`
/// unwinds (a leaked flag would silently disable observability for the
/// rest of the thread's life).
pub fn suppress<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SUPPRESSED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SUPPRESSED.with(|s| s.replace(true)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_and_restores() {
        assert!(!suppressed());
        suppress(|| {
            assert!(suppressed());
            suppress(|| assert!(suppressed()));
            assert!(suppressed());
        });
        assert!(!suppressed());
    }

    #[test]
    fn restores_after_panic() {
        let r = std::panic::catch_unwind(|| suppress(|| panic!("boom")));
        assert!(r.is_err());
        assert!(!suppressed(), "suppression must not leak past an unwind");
    }
}
