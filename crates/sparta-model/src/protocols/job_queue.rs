//! The `JobQueue` completion protocol (`sparta-exec/src/job_queue.rs`):
//! the final `fetch_sub(AcqRel)` on `outstanding`, the lock bridge, and
//! the condvar-parked waiter.
//!
//! This is the instruction-level successor of the bespoke
//! `sparta-testkit::wakeup_model` proof that caught the PR 5 hang —
//! [`Variant::Legacy`] (decrement + notify, no bridge) must wedge on
//! some interleaving, [`Variant::LockBridge`] (the shipped
//! `finish_one`) must verify clean. On top of the old state-machine
//! model, this port also checks the *memory* half of the claim in the
//! `// ordering:` comments: the release of the final decrement is what
//! publishes the finished job's side effects (`data` below) to the
//! waiter that observes `outstanding == 0`.

use super::Mutation;
use crate::{MemOrder, Model};

/// Which finish-side protocol to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Decrement then notify, never touching the waiter's mutex: the
    /// lost-wakeup bug the bridge fixed.
    Legacy,
    /// The shipped `finish_one`: decrement, acquire + drop the queue
    /// mutex, then notify.
    LockBridge,
}

/// One finisher completing the last job, one waiter in
/// `wait_complete`. Invariant: a waiter that returns has the job's
/// side effects (`data == 1`) visible, and no interleaving wedges.
pub fn model(variant: Variant, mutation: Mutation) -> Model {
    let mut m = Model::new("job_queue_outstanding");
    let outstanding = m.atomic_u64("outstanding", 1);
    let data = m.atomic_u64("data", 0);
    let jobs = m.mutex();
    let cv = m.condvar();

    let sub_ord = match mutation {
        // ordering under test: job_queue.rs finish_one's AcqRel — the
        // release half is what the mutation drops.
        Mutation::ReleaseToRelaxed => MemOrder::Acquire,
        _ => MemOrder::AcqRel,
    };
    m.thread("finisher", move |t| {
        // The job body's side effects, then finish_one().
        data.store(t, 1, MemOrder::Relaxed);
        if outstanding.fetch_sub(t, 1, sub_ord) == 1 {
            if variant == Variant::LockBridge {
                jobs.lock(t);
                jobs.unlock(t);
            }
            cv.notify_all(t);
        }
    });

    let load_ord = match mutation {
        // ordering under test: outstanding()'s Acquire load.
        Mutation::AcquireToRelaxed => MemOrder::Relaxed,
        _ => MemOrder::Acquire,
    };
    m.thread("waiter", move |t| {
        // wait_complete(): check under the queue mutex, park on cv.
        jobs.lock(t);
        loop {
            if outstanding.load(t, load_ord) == 0 {
                break;
            }
            cv.wait(t, jobs);
        }
        jobs.unlock(t);
        // The caller now relies on the finished job's writes.
        t.observe("data_at_wakeup", data.load(t, MemOrder::Relaxed));
    });

    m.invariant(move |leaf| {
        if leaf.observed("data_at_wakeup").iter().all(|&v| v == 1) {
            Ok(())
        } else {
            Err("waiter returned from wait_complete without the finished \
                 job's side effects visible"
                .to_string())
        }
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_bridge_is_clean() {
        let report = model(Variant::LockBridge, Mutation::None).check();
        report.assert_clean();
        assert!(report.executions > 1);
    }

    #[test]
    fn legacy_wedges() {
        let report = model(Variant::Legacy, Mutation::None).check();
        assert!(report.violations > 0, "legacy protocol must lose a wakeup");
        assert!(
            report.executions > report.violations,
            "legacy protocol must also have good interleavings"
        );
        assert!(report
            .first_violation
            .expect("wedge recorded")
            .message
            .contains("wedged"));
    }
}
