//! Loom model check for the fleet scheduler's event queue.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`, when the serving
//! stack's locks (via `drugtree_sources::sync`) swap for loom's
//! instrumented types. Each `loom::model` closure is executed under
//! many perturbed thread schedules (the vendored loom is a
//! shuttle-style randomized-schedule stand-in; `LOOM_ITERS` overrides
//! the schedule count), so the invariant below is checked across
//! genuinely different interleavings, not one lucky run: a completion
//! and a deadline expiry racing the blocked consumer both arrive.
//!
//! Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p drugtree-sources --test loom_model --release
//! ```

#![cfg(loom)]
// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

/// The fleet scheduler's event queue under perturbed schedules: a
/// coalescer completion and a deadline expiry pushed from racing
/// producer threads must both reach the blocked coordinator — no lost
/// wakeup whichever side wins the race with the consumer's
/// empty-check-then-park window, and whichever of them races `close`.
///
/// `close` is only ordered after the expiry's own push, so the
/// completion can land before or after it. A completion queued before
/// the close must come out of the blocking `pop` loop; one pushed
/// after it must still be queued, never dropped.
#[test]
fn event_queue_never_loses_completion_racing_deadline_expiry() {
    use drugtree_sources::sched::EventQueue;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Ev {
        CoalescerDone,
        DeadlineExpired,
    }

    loom::model(|| {
        let q = Arc::new(EventQueue::new());
        let completion_pushed = Arc::new(AtomicBool::new(false));
        let completion = {
            let (q, pushed) = (Arc::clone(&q), Arc::clone(&completion_pushed));
            loom::thread::spawn(move || {
                q.push(Ev::CoalescerDone);
                pushed.store(true, Ordering::SeqCst);
            })
        };
        let expiry = {
            let (q, pushed) = (Arc::clone(&q), Arc::clone(&completion_pushed));
            loom::thread::spawn(move || {
                q.push(Ev::DeadlineExpired);
                // The expiry side also initiates shutdown, racing the
                // consumer's drain: close must never drop the queued
                // completion. Report whether it was queued by now.
                let completion_queued = pushed.load(Ordering::SeqCst);
                q.close();
                completion_queued
            })
        };

        // The coordinator blocks until the queue is closed; `pop` may
        // only return `None` once the queue is closed *and* drained.
        let mut seen = std::collections::HashSet::new();
        while let Some(ev) = q.pop() {
            seen.insert(ev);
        }
        completion.join().unwrap();
        let completion_queued_before_close = expiry.join().unwrap();
        assert!(seen.contains(&Ev::DeadlineExpired));
        if completion_queued_before_close {
            assert!(
                seen.contains(&Ev::CoalescerDone),
                "event lost: pop returned None before both arrived"
            );
        }
        // A completion pushed after the close is still queued.
        while let Some(ev) = q.try_pop() {
            seen.insert(ev);
        }

        assert!(seen.contains(&Ev::CoalescerDone));
        assert_eq!(q.pop(), None, "closed and drained");
        let stats = q.stats();
        assert_eq!(stats.pushed, 2);
        assert_eq!(stats.popped, 2);
    });
}
