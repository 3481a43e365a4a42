//! The public checker API: build a [`Model`] out of modelled
//! primitives, thread closures, and invariants; [`Model::check`]
//! explores every interleaving (and every allowed stale read) and
//! reports violations with a replayable schedule.
//!
//! # Exploration
//!
//! Stateless replay-based DFS: each execution re-runs the model's
//! thread closures from scratch, following a *decision string* — at
//! every scheduling step with more than one enabled (thread,
//! read-candidate) alternative, the string says which to take.
//! Backtracking increments the last non-exhausted decision and re-runs.
//! Steps with a single alternative are collapsed (not recorded), so
//! schedules stay short and the leaf count equals the number of
//! genuinely distinct interleaving/read combinations.
//!
//! This is honest exhaustive enumeration at visible-operation
//! granularity, not DPOR: sound dynamic partial-order reduction must
//! treat a load as conflicting with *future* stores (delaying a load
//! can only add read candidates), and a hand-rolled persistent-set
//! pruner that gets that subtlety wrong silently drops interleavings —
//! the one failure mode a checker of last resort cannot have. The
//! models this crate ships are small enough (≤ a few thousand leaves)
//! that brute force stays well under a second; an optional
//! [`Model::preemption_bound`] is the documented fallback for larger
//! models, and it over-approximates *pruning* loudly via
//! [`CheckReport::truncated`].

use crate::exec::{
    Choice, CvSt, Exec, ExecAbort, ExecSt, MutexSt, Op, RmwKind, Status, ThreadCtx, ThreadSt,
};
use crate::mem::{Loc, MemOrder, ThreadMem, View};
use std::sync::{Arc, Condvar, Mutex};

type Body = Arc<dyn Fn(&ThreadCtx) + Send + Sync + 'static>;
type Invariant = Arc<dyn Fn(&Leaf) -> Result<(), String> + Send + Sync + 'static>;

/// Handle to a modelled 64-bit atomic. Copy — capture it by value in
/// thread closures.
#[derive(Debug, Clone, Copy)]
pub struct ModelAtomicU64 {
    pub(crate) loc: usize,
}

impl ModelAtomicU64 {
    pub fn load(&self, t: &ThreadCtx, ord: MemOrder) -> u64 {
        t.exec.visible(t.tid, Op::Load { loc: self.loc, ord })
    }

    pub fn store(&self, t: &ThreadCtx, val: u64, ord: MemOrder) {
        t.exec.visible(
            t.tid,
            Op::Store {
                loc: self.loc,
                val,
                ord,
            },
        );
    }

    pub fn fetch_add(&self, t: &ThreadCtx, operand: u64, ord: MemOrder) -> u64 {
        self.rmw(t, RmwKind::Add, operand, ord)
    }

    pub fn fetch_sub(&self, t: &ThreadCtx, operand: u64, ord: MemOrder) -> u64 {
        self.rmw(t, RmwKind::Sub, operand, ord)
    }

    pub fn fetch_or(&self, t: &ThreadCtx, operand: u64, ord: MemOrder) -> u64 {
        self.rmw(t, RmwKind::Or, operand, ord)
    }

    pub fn swap(&self, t: &ThreadCtx, val: u64, ord: MemOrder) -> u64 {
        self.rmw(t, RmwKind::Swap, val, ord)
    }

    /// Strong compare-and-swap with `std`'s result shape: `Ok(old)` if
    /// the latest value was `expected` (now `new`), else `Err(seen)`
    /// where `seen` may be any value the memory model lets a load
    /// observe.
    pub fn compare_exchange(
        &self,
        t: &ThreadCtx,
        expected: u64,
        new: u64,
        success: MemOrder,
        failure: MemOrder,
    ) -> Result<u64, u64> {
        let seen = t.exec.visible(
            t.tid,
            Op::Cas {
                loc: self.loc,
                expected,
                new,
                success,
                failure,
            },
        );
        if seen == expected {
            Ok(seen)
        } else {
            Err(seen)
        }
    }

    fn rmw(&self, t: &ThreadCtx, kind: RmwKind, operand: u64, ord: MemOrder) -> u64 {
        t.exec.visible(
            t.tid,
            Op::Rmw {
                loc: self.loc,
                kind,
                operand,
                ord,
            },
        )
    }
}

/// Handle to a modelled pointer-width atomic. The workspace forbids
/// `unsafe`, so the model cannot dereference real pointers; a "pointer"
/// here is an opaque u64 token (arena index, tagged id, …) — which is
/// exactly the shape hazard-pointer and epoch publication protocols
/// need checked: who can observe which token, when.
#[derive(Debug, Clone, Copy)]
pub struct ModelAtomicPtr {
    inner: ModelAtomicU64,
}

impl ModelAtomicPtr {
    pub fn load(&self, t: &ThreadCtx, ord: MemOrder) -> u64 {
        self.inner.load(t, ord)
    }

    pub fn store(&self, t: &ThreadCtx, token: u64, ord: MemOrder) {
        self.inner.store(t, token, ord);
    }

    /// The pointer-swing: publish `token`, get the previous one back.
    pub fn swap(&self, t: &ThreadCtx, token: u64, ord: MemOrder) -> u64 {
        self.inner.swap(t, token, ord)
    }
}

/// Handle to a modelled mutex.
///
/// Lock acquisition is scheduler-blocked (the operation is enabled only
/// while the mutex is free) rather than modelled as a spin loop — a
/// spinning acquisition would give the explorer unboundedly many
/// fruitless interleavings. Its *memory* effects stay explicit and
/// weakenable: by default unlock releases the holder's view into the
/// mutex and lock acquires it, and [`Model::mutex_weakened`] builds
/// variants without one or both edges so lock-based protocols are
/// mutation-testable too.
#[derive(Debug, Clone, Copy)]
pub struct ModelMutex {
    pub(crate) id: usize,
}

impl ModelMutex {
    pub fn lock(&self, t: &ThreadCtx) {
        t.exec.visible(t.tid, Op::Lock { m: self.id });
    }

    pub fn unlock(&self, t: &ThreadCtx) {
        t.exec.visible(t.tid, Op::Unlock { m: self.id });
    }
}

/// Handle to a modelled condvar, with guaranteed semantics only: a
/// notify wakes currently-parked threads and is otherwise lost; there
/// are no spurious wakeups. Protocols must be correct without relying
/// on spurious wakeups *or* on notifies reaching not-yet-parked
/// waiters — which is precisely what the PR 5 lost-wakeup bug violated.
#[derive(Debug, Clone, Copy)]
pub struct ModelCondvar {
    pub(crate) id: usize,
}

impl ModelCondvar {
    /// Atomically releases `m` and parks; reacquires `m` before
    /// returning. Call only with `m` held, and only inside a
    /// predicate-rechecking loop (the sparta-lint `condvar-wait` rule
    /// applies to models too).
    pub fn wait(&self, t: &ThreadCtx, m: ModelMutex) {
        t.exec.visible(
            t.tid,
            Op::Wait {
                cv: self.id,
                m: m.id,
            },
        );
    }

    pub fn notify_all(&self, t: &ThreadCtx) {
        t.exec.visible(t.tid, Op::NotifyAll { cv: self.id });
    }
}

struct LocSpec {
    name: &'static str,
    init: u64,
}

struct MutexSpec {
    acq_on_lock: bool,
    rel_on_unlock: bool,
}

struct ThreadSpec {
    name: &'static str,
    body: Body,
}

/// The final state of one fully-terminated execution, handed to
/// invariants.
pub struct Leaf {
    values: Vec<u64>,
    observations: Vec<(usize, &'static str, u64)>,
}

impl Leaf {
    /// The location's final value (tail of its modification order).
    pub fn value(&self, a: ModelAtomicU64) -> u64 {
        self.values[a.loc]
    }

    /// Every value observed under `label`, in observation order.
    pub fn observed(&self, label: &str) -> Vec<u64> {
        self.observations
            .iter()
            .filter(|(_, l, _)| *l == label)
            .map(|&(_, _, v)| v)
            .collect()
    }
}

/// A violated invariant (or wedge/panic) with the decision string that
/// reproduces it via [`Model::replay`].
#[derive(Debug, Clone)]
pub struct Violation {
    pub schedule: String,
    pub message: String,
}

/// Outcome of [`Model::check`].
#[derive(Debug, Clone)]
pub struct CheckReport {
    pub model: String,
    /// Complete executions explored (leaves of the decision tree).
    pub executions: usize,
    /// Visible-operation grants across all executions — the state
    /// count the CI budget reports.
    pub steps: u64,
    /// Leaves that violated an invariant, wedged, or panicked.
    pub violations: usize,
    pub first_violation: Option<Violation>,
    /// True when the exploration stopped at [`Model::max_executions`]
    /// or pruned schedules past the preemption bound.
    pub truncated: bool,
}

impl CheckReport {
    /// Panics with the first counterexample if any leaf violated.
    pub fn assert_clean(&self) {
        if let Some(v) = &self.first_violation {
            panic!(
                "model `{}`: {} violating execution(s) of {}; first: {} (replay schedule: \"{}\")",
                self.model, self.violations, self.executions, v.message, v.schedule
            );
        }
        assert!(
            !self.truncated,
            "model `{}`: exploration truncated — raise max_executions",
            self.model
        );
    }
}

enum LeafKind {
    Ok,
    Violation(String),
}

/// An exhaustive-checkable concurrency model. See the crate docs for a
/// worked example and DESIGN.md §15 for the modelling contract.
pub struct Model {
    name: String,
    locs: Vec<LocSpec>,
    mutexes: Vec<MutexSpec>,
    cvs: usize,
    threads: Vec<ThreadSpec>,
    invariants: Vec<Invariant>,
    max_executions: usize,
    preemption_bound: Option<usize>,
}

impl Model {
    pub fn new(name: &str) -> Model {
        Model {
            name: name.to_string(),
            locs: Vec::new(),
            mutexes: Vec::new(),
            cvs: 0,
            threads: Vec::new(),
            invariants: Vec::new(),
            max_executions: 1_000_000,
            preemption_bound: None,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a modelled atomic with an initial value.
    pub fn atomic_u64(&mut self, name: &'static str, init: u64) -> ModelAtomicU64 {
        self.locs.push(LocSpec { name, init });
        ModelAtomicU64 {
            loc: self.locs.len() - 1,
        }
    }

    /// Declares a modelled pointer-width atomic holding `init` as its
    /// initial token.
    pub fn atomic_ptr(&mut self, name: &'static str, init: u64) -> ModelAtomicPtr {
        ModelAtomicPtr {
            inner: self.atomic_u64(name, init),
        }
    }

    /// Declares a mutex with full release/acquire edges.
    pub fn mutex(&mut self) -> ModelMutex {
        self.mutex_weakened(true, true)
    }

    /// Declares a mutex with configurable memory edges — mutation tests
    /// drop one side to prove the checker notices.
    pub fn mutex_weakened(&mut self, acq_on_lock: bool, rel_on_unlock: bool) -> ModelMutex {
        self.mutexes.push(MutexSpec {
            acq_on_lock,
            rel_on_unlock,
        });
        ModelMutex {
            id: self.mutexes.len() - 1,
        }
    }

    /// Declares a condvar.
    pub fn condvar(&mut self) -> ModelCondvar {
        self.cvs += 1;
        ModelCondvar { id: self.cvs - 1 }
    }

    /// Adds a model thread. The closure re-runs once per explored
    /// execution, so it must be a pure function of the modelled state.
    pub fn thread(
        &mut self,
        name: &'static str,
        body: impl Fn(&ThreadCtx) + Send + Sync + 'static,
    ) {
        self.threads.push(ThreadSpec {
            name,
            body: Arc::new(body),
        });
    }

    /// Adds an invariant checked on the final state of every fully
    /// terminated execution. (Wedged executions — no runnable thread
    /// with threads unfinished — are violations unconditionally.)
    pub fn invariant(&mut self, f: impl Fn(&Leaf) -> Result<(), String> + Send + Sync + 'static) {
        self.invariants.push(Arc::new(f));
    }

    /// Caps the number of explored executions (default one million);
    /// hitting the cap sets [`CheckReport::truncated`].
    pub fn max_executions(&mut self, n: usize) {
        self.max_executions = n;
    }

    /// Bounded-preemption fallback for models too large to enumerate:
    /// at most `n` preemptive context switches per execution. Pruned
    /// schedules set [`CheckReport::truncated`].
    pub fn preemption_bound(&mut self, n: usize) {
        self.preemption_bound = Some(n);
    }

    /// Explores every interleaving and read-candidate combination.
    pub fn check(&self) -> CheckReport {
        let mut report = CheckReport {
            model: self.name.clone(),
            executions: 0,
            steps: 0,
            violations: 0,
            first_violation: None,
            truncated: false,
        };
        let mut prefix: Vec<usize> = Vec::new();
        loop {
            let mut trail = Vec::new();
            let (leaf, pruned) = self.run_one(&prefix, Some(&mut trail), &mut report.steps);
            report.executions += 1;
            report.truncated |= pruned;
            if let LeafKind::Violation(message) = leaf {
                report.violations += 1;
                if report.first_violation.is_none() {
                    report.first_violation = Some(Violation {
                        schedule: schedule_string(&trail),
                        message,
                    });
                }
            }
            if report.executions >= self.max_executions {
                report.truncated = true;
                return report;
            }
            // Backtrack: bump the deepest non-exhausted decision.
            loop {
                match trail.pop() {
                    Some((chosen, total)) if chosen + 1 < total => {
                        prefix = trail.iter().map(|&(c, _)| c).collect();
                        prefix.push(chosen + 1);
                        break;
                    }
                    Some(_) => continue,
                    None => return report,
                }
            }
        }
    }

    /// Re-runs the single execution named by a [`Violation::schedule`]
    /// decision string; returns its violation message, or `None` if
    /// that execution is clean.
    pub fn replay(&self, schedule: &str) -> Option<String> {
        let prefix: Vec<usize> = schedule
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.trim().parse().expect("malformed schedule"))
            .collect();
        let mut steps = 0;
        match self.run_one(&prefix, None, &mut steps) {
            (LeafKind::Violation(m), _) => Some(m),
            (LeafKind::Ok, _) => None,
        }
    }

    /// Runs one execution following `prefix` (then first-alternative),
    /// recording multi-alternative decisions into `trail`. Returns the
    /// leaf outcome and whether the preemption bound pruned anything.
    fn run_one(
        &self,
        prefix: &[usize],
        trail: Option<&mut Vec<(usize, usize)>>,
        steps: &mut u64,
    ) -> (LeafKind, bool) {
        let nlocs = self.locs.len();
        let exec = Arc::new(Exec {
            st: Mutex::new(ExecSt {
                locs: self
                    .locs
                    .iter()
                    .map(|l| Loc::new(l.name, l.init, nlocs))
                    .collect(),
                mutexes: self
                    .mutexes
                    .iter()
                    .map(|m| MutexSt {
                        holder: None,
                        view: View::new(nlocs),
                        acq_on_lock: m.acq_on_lock,
                        rel_on_unlock: m.rel_on_unlock,
                    })
                    .collect(),
                cvs: vec![CvSt::default(); self.cvs],
                threads: self
                    .threads
                    .iter()
                    .map(|_| ThreadSt {
                        status: Status::Running,
                        pending: None,
                        granted: false,
                        abort: false,
                        result: 0,
                        mem: ThreadMem::new(nlocs),
                    })
                    .collect(),
                observations: Vec::new(),
                panic_msg: None,
            }),
            cv: Condvar::new(),
        });

        let mut handles = Vec::with_capacity(self.threads.len());
        for (tid, spec) in self.threads.iter().enumerate() {
            let exec2 = Arc::clone(&exec);
            let body = Arc::clone(&spec.body);
            let name = spec.name;
            let h = std::thread::Builder::new()
                .name(format!("model-{name}"))
                .stack_size(128 * 1024)
                .spawn(move || {
                    let ctx = ThreadCtx {
                        exec: Arc::clone(&exec2),
                        tid,
                    };
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
                    let mut st = exec2.st.lock().expect("exec state poisoned");
                    if let Err(payload) = r {
                        if !payload.is::<ExecAbort>() {
                            let msg = panic_text(payload.as_ref());
                            st.panic_msg
                                .get_or_insert(format!("thread `{name}` panicked: {msg}"));
                        }
                    }
                    st.threads[tid].status = Status::Finished;
                    exec2.cv.notify_all();
                })
                .expect("spawn model thread");
            handles.push(h);
        }

        let outcome = self.control(&exec, prefix, trail, steps);

        // Release every still-blocked thread so the joins complete.
        {
            let mut st = exec.st.lock().expect("exec state poisoned");
            for t in &mut st.threads {
                t.abort = true;
            }
            exec.cv.notify_all();
        }
        for h in handles {
            h.join().expect("model thread cleanly joined");
        }
        outcome
    }

    /// The controller loop of one execution.
    fn control(
        &self,
        exec: &Exec,
        prefix: &[usize],
        mut trail: Option<&mut Vec<(usize, usize)>>,
        steps: &mut u64,
    ) -> (LeafKind, bool) {
        let mut pos = 0usize;
        let mut pruned = false;
        let mut preemptions = 0usize;
        let mut last_tid: Option<usize> = None;
        let mut st = exec.st.lock().expect("exec state poisoned");
        loop {
            while st
                .threads
                .iter()
                .any(|t| matches!(t.status, Status::Running))
            {
                st = exec.cv.wait(st).expect("exec state poisoned");
            }
            if let Some(msg) = st.panic_msg.take() {
                return (LeafKind::Violation(msg), pruned);
            }
            let mut choices = st.choices();
            // Bounded-preemption fallback: once the budget is spent, a
            // thread that is still enabled keeps running.
            if let Some(bound) = self.preemption_bound {
                if let Some(prev) = last_tid {
                    let prev_enabled = choices.iter().any(|c| c.tid == prev);
                    if prev_enabled && preemptions >= bound {
                        let before = choices.len();
                        choices.retain(|c| c.tid == prev);
                        pruned |= choices.len() < before;
                    }
                }
            }
            if choices.is_empty() {
                let all_done = st
                    .threads
                    .iter()
                    .all(|t| matches!(t.status, Status::Finished));
                if !all_done {
                    let stuck: Vec<&str> = st
                        .threads
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| !matches!(t.status, Status::Finished))
                        .map(|(tid, _)| self.threads[tid].name)
                        .collect();
                    return (
                        LeafKind::Violation(format!(
                            "wedged: no runnable thread, but [{}] never finished \
                             (lost wakeup or deadlock)",
                            stuck.join(", ")
                        )),
                        pruned,
                    );
                }
                let leaf = Leaf {
                    values: st.locs.iter().map(|l| l.latest().val).collect(),
                    observations: st.observations.clone(),
                };
                for inv in &self.invariants {
                    if let Err(msg) = inv(&leaf) {
                        let state: Vec<String> = st
                            .locs
                            .iter()
                            .map(|l| format!("{}={}", l.name, l.latest().val))
                            .collect();
                        return (
                            LeafKind::Violation(format!(
                                "{msg} [final state: {}]",
                                state.join(" ")
                            )),
                            pruned,
                        );
                    }
                }
                return (LeafKind::Ok, pruned);
            }
            let idx = if choices.len() == 1 {
                0
            } else {
                let i = prefix.get(pos).copied().unwrap_or(0).min(choices.len() - 1);
                pos += 1;
                if let Some(tr) = trail.as_mut() {
                    tr.push((i, choices.len()));
                }
                i
            };
            let choice: Choice = choices[idx];
            if let Some(prev) = last_tid {
                if prev != choice.tid && choices.iter().any(|c| c.tid == prev) {
                    preemptions += 1;
                }
            }
            last_tid = Some(choice.tid);
            *steps += 1;
            st.apply(choice);
            exec.cv.notify_all();
        }
    }
}

fn schedule_string(trail: &[(usize, usize)]) -> String {
    trail
        .iter()
        .map(|&(c, _)| c.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}
