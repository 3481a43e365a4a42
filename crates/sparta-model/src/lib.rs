//! # sparta-model — exhaustive weak-memory model checking
//!
//! A loom-style checker for the cross-thread protocols the rest of the
//! workspace *claims* are correct in `// ordering:` comments. Modelled
//! primitives ([`ModelAtomicU64`], [`ModelAtomicPtr`], [`ModelMutex`],
//! [`ModelCondvar`]) route every access through a view-based
//! operational semantics of C11 release/acquire (`mem`), and an
//! exhaustive schedule explorer ([`Model::check`]) enumerates every
//! interleaving *and every stale read the memory model permits*,
//! asserting the model's invariants on each leaf. A failing
//! interleaving comes back as a decision string that [`Model::replay`]
//! re-executes deterministically.
//!
//! The crate closes the loop with `sparta-lint`: every `// ordering:`
//! justification in the workspace must name a model in this crate via
//! a `model: <name>` tag, so an ordering claim without a machine check
//! is a lint violation. The shipped models live in [`protocols`]; each
//! is an instruction-level port of a real protocol (JobQueue
//! completion, the seqlock event ring, DocSlab score publication,
//! DocTable admission, the DocBitset claim, the admission gate, server
//! lifecycle flags, the scheduler tag allocator) with its DESIGN.md invariant attached, plus *mutation*
//! variants proving the checker actually detects a weakened ordering.
//!
//! ```
//! use sparta_model::{MemOrder, Model};
//!
//! let mut m = Model::new("doc_example_message_passing");
//! let data = m.atomic_u64("data", 0);
//! let flag = m.atomic_u64("flag", 0);
//! m.thread("writer", move |t| {
//!     data.store(t, 1, MemOrder::Relaxed);
//!     flag.store(t, 1, MemOrder::Release);
//! });
//! m.thread("reader", move |t| {
//!     if flag.load(t, MemOrder::Acquire) == 1 {
//!         t.observe("data_seen", data.load(t, MemOrder::Relaxed));
//!     }
//! });
//! m.invariant(move |leaf| {
//!     if leaf.observed("data_seen").iter().all(|&v| v == 1) {
//!         Ok(())
//!     } else {
//!         Err("reader saw the flag but stale data".to_string())
//!     }
//! });
//! m.check().assert_clean();
//! ```

mod exec;
mod mem;
mod model;
pub mod protocols;

pub use exec::ThreadCtx;
pub use mem::MemOrder;
pub use model::{
    CheckReport, Leaf, Model, ModelAtomicPtr, ModelAtomicU64, ModelCondvar, ModelMutex, Violation,
};

#[cfg(test)]
mod litmus {
    use super::*;

    /// Message passing with a Relaxed flag load: the stale-data leaf
    /// must be *found*, and its schedule must replay to the same
    /// violation. This is the test that proves the checker is not
    /// vacuously green.
    #[test]
    fn relaxed_message_passing_violation_is_found_and_replays() {
        let mut m = Model::new("litmus_mp_relaxed");
        let data = m.atomic_u64("data", 0);
        let flag = m.atomic_u64("flag", 0);
        m.thread("writer", move |t| {
            data.store(t, 1, MemOrder::Relaxed);
            flag.store(t, 1, MemOrder::Release);
        });
        m.thread("reader", move |t| {
            if flag.load(t, MemOrder::Relaxed) == 1 {
                t.observe("data_seen", data.load(t, MemOrder::Relaxed));
            }
        });
        m.invariant(move |leaf| {
            if leaf.observed("data_seen").iter().all(|&v| v == 1) {
                Ok(())
            } else {
                Err("reader saw flag=1 but data=0".to_string())
            }
        });
        let report = m.check();
        assert!(report.violations > 0, "stale read never explored");
        assert!(report.executions > report.violations);
        let v = report.first_violation.expect("violation recorded");
        let replayed = m.replay(&v.schedule).expect("replay hits the violation");
        assert_eq!(
            replayed, v.message,
            "schedule must replay to the same violation"
        );
        assert!(replayed.starts_with("reader saw flag=1 but data=0"));
    }

    /// The same shape with a proper Release/Acquire pair is clean.
    #[test]
    fn release_acquire_message_passing_is_clean() {
        let mut m = Model::new("litmus_mp_release_acquire");
        let data = m.atomic_u64("data", 0);
        let flag = m.atomic_u64("flag", 0);
        m.thread("writer", move |t| {
            data.store(t, 1, MemOrder::Relaxed);
            flag.store(t, 1, MemOrder::Release);
        });
        m.thread("reader", move |t| {
            if flag.load(t, MemOrder::Acquire) == 1 {
                t.observe("data_seen", data.load(t, MemOrder::Relaxed));
            }
        });
        m.invariant(move |leaf| {
            if leaf.observed("data_seen").iter().all(|&v| v == 1) {
                Ok(())
            } else {
                Err("acquire reader saw stale data".to_string())
            }
        });
        let report = m.check();
        report.assert_clean();
        assert!(report.executions > 1, "explorer found only one schedule");
    }

    /// Store buffering: with only release/acquire (no SeqCst in this
    /// workspace), both threads may read 0 — a behavior *no*
    /// interleaving-only model exhibits. The checker must reach it.
    #[test]
    fn store_buffering_both_zero_is_reachable() {
        let mut m = Model::new("litmus_store_buffering");
        let x = m.atomic_u64("x", 0);
        let y = m.atomic_u64("y", 0);
        m.thread("left", move |t| {
            x.store(t, 1, MemOrder::Release);
            t.observe("r1", y.load(t, MemOrder::Acquire));
        });
        m.thread("right", move |t| {
            y.store(t, 1, MemOrder::Release);
            t.observe("r2", x.load(t, MemOrder::Acquire));
        });
        // Deliberately inverted: "violations" here *count* the weak
        // outcome, proving the model is weaker than interleaving
        // semantics.
        m.invariant(move |leaf| {
            let r1 = leaf.observed("r1");
            let r2 = leaf.observed("r2");
            if r1 == [0] && r2 == [0] {
                Err("both-zero outcome".to_string())
            } else {
                Ok(())
            }
        });
        let report = m.check();
        assert!(
            report.violations > 0,
            "store-buffering outcome unreachable — model is accidentally SC"
        );
    }

    /// Compare-and-swap: of two racing claims exactly one succeeds,
    /// and the loser's failure value is the winner's.
    #[test]
    fn cas_has_exactly_one_winner() {
        let mut m = Model::new("litmus_cas");
        let x = m.atomic_u64("x", 0);
        for (name, mine) in [("a", 1u64), ("b", 2u64)] {
            m.thread(name, move |t| {
                match x.compare_exchange(t, 0, mine, MemOrder::AcqRel, MemOrder::Acquire) {
                    Ok(old) => t.observe("winner_replaced", old),
                    Err(seen) => t.observe("loser_saw", seen),
                }
            });
        }
        m.invariant(move |leaf| {
            if leaf.observed("winner_replaced") != [0] {
                return Err("not exactly one CAS winner".to_string());
            }
            if leaf.observed("loser_saw") != [leaf.value(x)] {
                return Err("loser did not observe the winner's value".to_string());
            }
            Ok(())
        });
        let report = m.check();
        report.assert_clean();
        assert_eq!(report.executions, 2, "either claim may land first");
    }

    /// A thread that parks with nobody left to notify is a wedge, and
    /// wedges are violations (this is the lost-wakeup detector).
    #[test]
    fn parked_forever_is_reported_as_wedge() {
        let mut m = Model::new("litmus_wedge");
        let mu = m.mutex();
        let cv = m.condvar();
        m.thread("sleeper", move |t| {
            mu.lock(t);
            cv.wait(t, mu);
            mu.unlock(t);
        });
        let report = m.check();
        assert_eq!(report.violations, report.executions);
        let v = report.first_violation.expect("wedge recorded");
        assert!(v.message.contains("wedged"), "{}", v.message);
        assert!(m.replay(&v.schedule).is_some());
    }

    /// Two lockers with no unlock deadlock; the second is stuck.
    #[test]
    fn double_lock_deadlocks() {
        let mut m = Model::new("litmus_deadlock");
        let mu = m.mutex();
        m.thread("a", move |t| {
            mu.lock(t);
        });
        m.thread("b", move |t| {
            mu.lock(t);
            mu.unlock(t);
        });
        let report = m.check();
        assert!(report.violations > 0, "deadlock not detected");
    }

    /// Model-thread panics surface as violations, not test aborts.
    #[test]
    fn thread_panic_is_a_violation() {
        let mut m = Model::new("litmus_panic");
        let x = m.atomic_u64("x", 0);
        m.thread("assertive", move |t| {
            assert_eq!(x.load(t, MemOrder::Relaxed), 1, "x must be 1");
        });
        let report = m.check();
        assert_eq!(report.violations, report.executions);
        assert!(report
            .first_violation
            .expect("panic recorded")
            .message
            .contains("panicked"));
    }

    /// The preemption bound prunes (truncated flag) but keeps the
    /// serial schedules.
    #[test]
    fn preemption_bound_prunes_loudly() {
        let mut m = Model::new("litmus_preemption_bound");
        let x = m.atomic_u64("x", 0);
        m.thread("a", move |t| {
            x.fetch_add(t, 1, MemOrder::AcqRel);
            x.fetch_add(t, 1, MemOrder::AcqRel);
        });
        m.thread("b", move |t| {
            x.fetch_add(t, 1, MemOrder::AcqRel);
            x.fetch_add(t, 1, MemOrder::AcqRel);
        });
        m.invariant(move |leaf| {
            if leaf.value(x) == 4 {
                Ok(())
            } else {
                Err(format!("lost update: {}", leaf.value(x)))
            }
        });
        let full = m.check();
        assert!(!full.truncated);
        assert_eq!(full.violations, 0);
        m.preemption_bound(0);
        let bounded = m.check();
        assert!(bounded.truncated, "bound 0 must prune");
        assert!(bounded.executions < full.executions);
        assert_eq!(bounded.violations, 0);
    }
}
