//! Loom-swappable synchronization primitives for the serving stack.
//!
//! The workspace standard for blocking primitives is `parking_lot`
//! (panic-free, non-poisoning; enforced by the `sync-hygiene` pass of
//! `repo-lint` and clippy's `disallowed-types`). Everything in the
//! concurrent serving path — the scheduler's event queue here, the
//! executor's semantic-cache lock, the adaptive runtime and the
//! rolling SLO windows in `drugtree-query` — acquires its locks
//! through this module instead of naming `parking_lot` directly, so
//! that building with `RUSTFLAGS="--cfg loom"` swaps in `loom`'s
//! schedule-perturbing instrumented types and the loom model-check
//! suites (`tests/loom_model.rs` in both crates) exercise the real
//! code under many interleavings:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p drugtree-sources --test loom_model --release
//! RUSTFLAGS="--cfg loom" cargo test -p drugtree-query --test loom_model --release
//! ```

#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(loom))]
pub use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
