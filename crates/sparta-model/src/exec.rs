//! One execution of a model: real OS threads, stepped one visible
//! operation at a time by a controller that owns all shared state.
//!
//! Model threads run their closures on small-stack OS threads. Every
//! modelled operation (atomic access, fence, lock, unlock, wait,
//! notify) is *announced* to the controller and the thread parks until
//! the controller grants it. The controller — the only mutator of the
//! memory/mutex/condvar state — waits until every live thread is
//! parked at an announcement, enumerates the enabled (thread,
//! read-candidate) choices, picks one according to the decision string
//! being explored, applies its effects, and releases that thread to
//! run to its next announcement. Interleaving therefore happens only
//! at visible operations, which is exactly the granularity weak-memory
//! behaviors are defined at.
//!
//! Teardown: when a leaf is reached with threads still blocked (a
//! wedge, or exploration being cut short), the controller sets their
//! abort flags; the announcement wait loop observes the flag and
//! unwinds with the private [`ExecAbort`] payload, which the spawn
//! wrapper swallows. Any *other* panic escaping a model thread is
//! reported as a violation of that execution.

use crate::mem::{Loc, MemOrder, ThreadMem};
use std::sync::{Arc, Condvar, Mutex};

/// Panic payload used to unwind aborted model threads. Raised with
/// `resume_unwind`, so the global panic hook stays silent.
pub(crate) struct ExecAbort;

/// A visible operation announced by a model thread.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Load {
        loc: usize,
        ord: MemOrder,
    },
    Store {
        loc: usize,
        val: u64,
        ord: MemOrder,
    },
    Rmw {
        loc: usize,
        kind: RmwKind,
        operand: u64,
        ord: MemOrder,
    },
    /// Strong compare-and-swap. Success is an RMW of the latest
    /// message (ordering `success`); failure is a *load* (ordering
    /// `failure`) of any readable message whose value differs from
    /// `expected` — C11 lets a failing CAS observe a stale value.
    Cas {
        loc: usize,
        expected: u64,
        new: u64,
        success: MemOrder,
        failure: MemOrder,
    },
    Fence {
        ord: MemOrder,
    },
    Lock {
        m: usize,
    },
    Unlock {
        m: usize,
    },
    Wait {
        cv: usize,
        m: usize,
    },
    NotifyAll {
        cv: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum RmwKind {
    Add,
    Sub,
    Or,
    Swap,
}

/// Where a model thread currently stands, from the controller's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Executing between visible operations; the controller must wait.
    Running,
    /// Announced an operation and parked, awaiting a grant.
    Ready,
    /// Parked on a modelled condvar (inside a granted `Wait`).
    Parked {
        cv: usize,
        m: usize,
    },
    /// Notified; runnable once the mutex it must reacquire is free.
    WakePending {
        m: usize,
    },
    Finished,
}

pub(crate) struct ThreadSt {
    pub(crate) status: Status,
    pub(crate) pending: Option<Op>,
    pub(crate) granted: bool,
    pub(crate) abort: bool,
    pub(crate) result: u64,
    pub(crate) mem: ThreadMem,
}

#[derive(Debug, Clone)]
pub(crate) struct MutexSt {
    pub(crate) holder: Option<usize>,
    /// View transferred from unlockers to lockers (when the configured
    /// orderings say so — weakened variants exist for mutation tests).
    pub(crate) view: crate::mem::View,
    pub(crate) acq_on_lock: bool,
    pub(crate) rel_on_unlock: bool,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct CvSt {
    pub(crate) parked: Vec<usize>,
}

pub(crate) struct ExecSt {
    pub(crate) locs: Vec<Loc>,
    pub(crate) mutexes: Vec<MutexSt>,
    pub(crate) cvs: Vec<CvSt>,
    pub(crate) threads: Vec<ThreadSt>,
    pub(crate) observations: Vec<(usize, &'static str, u64)>,
    pub(crate) panic_msg: Option<String>,
}

/// Shared handle between the controller and the model threads of one
/// execution.
pub(crate) struct Exec {
    pub(crate) st: Mutex<ExecSt>,
    pub(crate) cv: Condvar,
}

impl Exec {
    /// Thread side: announce `op`, park until granted, return the
    /// operation's result (loaded/old value; 0 for effect-only ops).
    pub(crate) fn visible(&self, tid: usize, op: Op) -> u64 {
        let mut st = self.st.lock().expect("exec state poisoned");
        st.threads[tid].pending = Some(op);
        st.threads[tid].status = Status::Ready;
        self.cv.notify_all();
        loop {
            if st.threads[tid].abort {
                drop(st);
                std::panic::resume_unwind(Box::new(ExecAbort));
            }
            if st.threads[tid].granted {
                break;
            }
            st = self.cv.wait(st).expect("exec state poisoned");
        }
        st.threads[tid].granted = false;
        st.threads[tid].result
    }

    /// Thread side: record an observation for the leaf invariants.
    /// Deliberately *not* a visible operation — observations are the
    /// model's assertion plumbing, not part of the protocol under test.
    pub(crate) fn observe(&self, tid: usize, label: &'static str, val: u64) {
        let mut st = self.st.lock().expect("exec state poisoned");
        st.observations.push((tid, label, val));
    }
}

/// One grantable alternative at a scheduling step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Choice {
    pub(crate) tid: usize,
    /// For loads: index into the readable-message candidates. 0 for
    /// everything else (including `WakePending` relocks).
    pub(crate) cand: usize,
}

impl ExecSt {
    /// Enumerates every enabled (thread, candidate) alternative, in
    /// deterministic (tid, candidate) order.
    pub(crate) fn choices(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        for (tid, t) in self.threads.iter().enumerate() {
            match t.status {
                Status::Ready => match t.pending.expect("ready thread has an op") {
                    Op::Load { loc, .. } => {
                        let n = self.threads[tid].mem.readable(&self.locs[loc], loc).len();
                        for cand in 0..n {
                            out.push(Choice { tid, cand });
                        }
                    }
                    Op::Cas { loc, expected, .. } => {
                        for cand in 0..self.cas_outcomes(tid, loc, expected).len() {
                            out.push(Choice { tid, cand });
                        }
                    }
                    Op::Lock { m } => {
                        if self.mutexes[m].holder.is_none() {
                            out.push(Choice { tid, cand: 0 });
                        }
                    }
                    _ => out.push(Choice { tid, cand: 0 }),
                },
                Status::WakePending { m } => {
                    if self.mutexes[m].holder.is_none() {
                        out.push(Choice { tid, cand: 0 });
                    }
                }
                Status::Running | Status::Parked { .. } | Status::Finished => {}
            }
        }
        out
    }

    /// The outcomes a CAS by `tid` may take, in candidate order: every
    /// readable message with a value other than `expected` (a failing
    /// load of that message), then — if the latest message holds
    /// `expected` — success (`None`).
    fn cas_outcomes(&self, tid: usize, loc: usize, expected: u64) -> Vec<Option<usize>> {
        let l = &self.locs[loc];
        let mut out: Vec<Option<usize>> = self.threads[tid]
            .mem
            .readable(l, loc)
            .into_iter()
            .filter(|&k| l.hist[k].val != expected)
            .map(Some)
            .collect();
        if l.latest().val == expected {
            out.push(None);
        }
        out
    }

    /// Applies the chosen alternative. Grants the thread (sets it
    /// `Running`) except for `Wait`, which parks it on the condvar.
    pub(crate) fn apply(&mut self, c: Choice) {
        let tid = c.tid;
        if let Status::WakePending { m } = self.threads[tid].status {
            self.lock_mutex(tid, m);
            self.grant(tid, 0);
            return;
        }
        let op = self.threads[tid].pending.expect("granted thread has an op");
        match op {
            Op::Load { loc, ord } => {
                let cands = self.threads[tid].mem.readable(&self.locs[loc], loc);
                let k = cands[c.cand];
                let v = self.threads[tid].mem.load(&self.locs[loc], loc, k, ord);
                self.grant(tid, v);
            }
            Op::Store { loc, val, ord } => {
                let t = &mut self.threads[tid];
                t.mem.store(&mut self.locs[loc], loc, val, ord);
                self.grant(tid, 0);
            }
            Op::Rmw {
                loc,
                kind,
                operand,
                ord,
            } => {
                let t = &mut self.threads[tid];
                let old = t.mem.rmw(&mut self.locs[loc], loc, ord, |v| match kind {
                    RmwKind::Add => v.wrapping_add(operand),
                    RmwKind::Sub => v.wrapping_sub(operand),
                    RmwKind::Or => v | operand,
                    RmwKind::Swap => operand,
                });
                self.grant(tid, old);
            }
            Op::Cas {
                loc,
                expected,
                new,
                success,
                failure,
            } => {
                // The observed value tells the caller which way it
                // went: it equals `expected` exactly on success.
                let seen = match self.cas_outcomes(tid, loc, expected)[c.cand] {
                    Some(k) => self.threads[tid].mem.load(&self.locs[loc], loc, k, failure),
                    None => self.threads[tid]
                        .mem
                        .rmw(&mut self.locs[loc], loc, success, |_| new),
                };
                self.grant(tid, seen);
            }
            Op::Fence { ord } => {
                self.threads[tid].mem.fence(ord);
                self.grant(tid, 0);
            }
            Op::Lock { m } => {
                self.lock_mutex(tid, m);
                self.grant(tid, 0);
            }
            Op::Unlock { m } => {
                self.unlock_mutex(tid, m);
                self.grant(tid, 0);
            }
            Op::Wait { cv, m } => {
                // The condvar's atomic release-and-park: one visible
                // step, so no notify can land between them.
                self.unlock_mutex(tid, m);
                self.cvs[cv].parked.push(tid);
                self.threads[tid].status = Status::Parked { cv, m };
            }
            Op::NotifyAll { cv } => {
                // Guaranteed semantics only: a notify wakes currently
                // parked threads and is lost otherwise; no spurious
                // wakeups. The protocols must not need either.
                let parked = std::mem::take(&mut self.cvs[cv].parked);
                for w in parked {
                    let Status::Parked { m, .. } = self.threads[w].status else {
                        unreachable!("parked list entry not parked");
                    };
                    self.threads[w].status = Status::WakePending { m };
                }
                self.grant(tid, 0);
            }
        }
    }

    fn grant(&mut self, tid: usize, result: u64) {
        let t = &mut self.threads[tid];
        t.result = result;
        t.granted = true;
        t.status = Status::Running;
    }

    fn lock_mutex(&mut self, tid: usize, m: usize) {
        let mu = &mut self.mutexes[m];
        assert!(mu.holder.is_none(), "lock granted while held");
        mu.holder = Some(tid);
        if mu.acq_on_lock {
            self.threads[tid].mem.cur.join(&mu.view);
        }
    }

    fn unlock_mutex(&mut self, tid: usize, m: usize) {
        let mu = &mut self.mutexes[m];
        assert_eq!(
            mu.holder,
            Some(tid),
            "model bug: unlock of `{m}` by a non-holder"
        );
        mu.holder = None;
        if mu.rel_on_unlock {
            let cur = self.threads[tid].mem.cur.clone();
            self.mutexes[m].view.join(&cur);
        }
    }
}

/// Client-side handle passed to every model-thread closure.
pub struct ThreadCtx {
    pub(crate) exec: Arc<Exec>,
    pub(crate) tid: usize,
}

impl ThreadCtx {
    /// Issues a standalone memory fence.
    pub fn fence(&self, ord: MemOrder) {
        self.exec.visible(self.tid, Op::Fence { ord });
    }

    /// Records a labelled value for the leaf invariants to inspect.
    pub fn observe(&self, label: &'static str, val: u64) {
        self.exec.observe(self.tid, label, val);
    }
}
