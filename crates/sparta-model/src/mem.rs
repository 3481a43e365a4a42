//! The weak-memory substrate: a view-based operational model of C11
//! release/acquire atomics.
//!
//! A naive store-buffer (TSO) simulation cannot do this job: TSO is
//! strictly stronger than C11 Relaxed, so flipping an `Acquire` load to
//! `Relaxed` would change nothing and every mutation self-test would be
//! vacuous. Instead each location keeps its full *modification order*
//! as an append-only message history, and each thread carries a *view*:
//! a per-location timestamp floor below which it can no longer read.
//!
//! - A **store** appends a message. A `Release` store attaches the
//!   writer's current view to the message; a `Relaxed` store attaches
//!   only the view captured by the last `Release` **fence** (empty if
//!   none) plus its own coordinate.
//! - A **load** may read *any* message at or above the thread's floor
//!   for that location — this is where stale reads, and therefore every
//!   interesting weak behavior, come from. An `Acquire` load joins the
//!   message's attached view into the thread's view; a `Relaxed` load
//!   banks it in `acq_pending`, to be claimed by a later `Acquire`
//!   fence.
//! - An **RMW** reads the latest message (atomicity) and its new
//!   message always inherits the previous message's attached view —
//!   that is the release-sequence rule the `JobQueue` outstanding
//!   counter leans on.
//!
//! This is the release/acquire fragment of the promising/operational
//! semantics family (no promises, no SC accesses — the workspace lint
//! forbids `SeqCst` outright, so the checker does not model it).

/// Timestamp into one location's modification order (index into its
/// message history; 0 is the initialization message).
pub(crate) type Ts = usize;

/// A per-location timestamp vector. `stamps[loc]` is the floor: this
/// thread can only read messages of `loc` with `ts >= stamps[loc]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct View {
    stamps: Vec<Ts>,
}

impl View {
    pub(crate) fn new(locs: usize) -> Self {
        View {
            stamps: vec![0; locs],
        }
    }

    pub(crate) fn get(&self, loc: usize) -> Ts {
        self.stamps[loc]
    }

    pub(crate) fn raise(&mut self, loc: usize, ts: Ts) {
        if self.stamps[loc] < ts {
            self.stamps[loc] = ts;
        }
    }

    /// Pointwise maximum — the lattice join all synchronization
    /// reduces to.
    pub(crate) fn join(&mut self, other: &View) {
        for (s, o) in self.stamps.iter_mut().zip(&other.stamps) {
            if *s < *o {
                *s = *o;
            }
        }
    }
}

/// One message in a location's modification order.
#[derive(Debug, Clone)]
pub(crate) struct Msg {
    pub(crate) val: u64,
    pub(crate) ts: Ts,
    /// The view a reader synchronizes with when it acquires this
    /// message (the writer's view for Release stores; the fence view
    /// for Relaxed stores; inherited along release sequences for RMWs).
    pub(crate) view: View,
}

/// One atomic location: its name (for traces) and message history.
#[derive(Debug)]
pub(crate) struct Loc {
    pub(crate) name: &'static str,
    pub(crate) hist: Vec<Msg>,
}

impl Loc {
    pub(crate) fn new(name: &'static str, init: u64, locs: usize) -> Self {
        Loc {
            name,
            hist: vec![Msg {
                val: init,
                ts: 0,
                view: View::new(locs),
            }],
        }
    }

    pub(crate) fn latest(&self) -> &Msg {
        self.hist.last().expect("history never empty")
    }
}

/// The ordering vocabulary the modelled primitives accept.
///
/// Deliberately *not* `std::sync::atomic::Ordering`: model code must
/// stay invisible to sparta-lint's `Ordering::*` audit (the checker is
/// the thing ordering claims appeal to, not another claimant), and the
/// workspace policy bans `SeqCst`, so the model does not offer it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOrder {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
}

impl MemOrder {
    pub(crate) fn acquires(self) -> bool {
        matches!(self, MemOrder::Acquire | MemOrder::AcqRel)
    }

    pub(crate) fn releases(self) -> bool {
        matches!(self, MemOrder::Release | MemOrder::AcqRel)
    }
}

/// One thread's memory state.
#[derive(Debug, Clone)]
pub(crate) struct ThreadMem {
    /// Current view: per-location read floors plus everything this
    /// thread has synchronized with.
    pub(crate) cur: View,
    /// View captured at the last `Release` fence; attached to
    /// subsequent Relaxed stores.
    pub(crate) fence_rel: View,
    /// Views banked by Relaxed loads, claimed by an `Acquire` fence.
    pub(crate) acq_pending: View,
}

impl ThreadMem {
    pub(crate) fn new(locs: usize) -> Self {
        ThreadMem {
            cur: View::new(locs),
            fence_rel: View::new(locs),
            acq_pending: View::new(locs),
        }
    }

    /// Message indices of `loc` this thread is allowed to read.
    pub(crate) fn readable(&self, loc: &Loc, id: usize) -> Vec<usize> {
        let floor = self.cur.get(id);
        (floor..loc.hist.len()).collect()
    }

    /// Applies a load of message index `k` from `loc`.
    pub(crate) fn load(&mut self, loc: &Loc, id: usize, k: usize, ord: MemOrder) -> u64 {
        let msg = &loc.hist[k];
        self.cur.raise(id, msg.ts);
        if ord.acquires() {
            self.cur.join(&msg.view);
        } else {
            self.acq_pending.join(&msg.view);
        }
        msg.val
    }

    /// Applies a store of `val`, appending the new message.
    pub(crate) fn store(&mut self, loc: &mut Loc, id: usize, val: u64, ord: MemOrder) {
        let ts = loc.hist.len();
        self.cur.raise(id, ts);
        let view = if ord.releases() {
            self.cur.clone()
        } else {
            let mut v = self.fence_rel.clone();
            v.raise(id, ts);
            v
        };
        loc.hist.push(Msg { val, ts, view });
    }

    /// Applies an RMW computing `f(old)`, reading the latest message
    /// and appending adjacently. Returns the old value.
    pub(crate) fn rmw(
        &mut self,
        loc: &mut Loc,
        id: usize,
        ord: MemOrder,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let (old_val, old_view, old_ts) = {
            let m = loc.latest();
            (m.val, m.view.clone(), m.ts)
        };
        self.cur.raise(id, old_ts);
        if ord.acquires() {
            self.cur.join(&old_view);
        } else {
            self.acq_pending.join(&old_view);
        }
        let ts = loc.hist.len();
        self.cur.raise(id, ts);
        // Release sequence: the new message carries the previous
        // message's view even when this RMW itself is not a release —
        // an Acquire reader of the new message still synchronizes with
        // the head of the sequence.
        let mut view = old_view;
        if ord.releases() {
            view.join(&self.cur);
        } else {
            view.join(&self.fence_rel);
        }
        view.raise(id, ts);
        loc.hist.push(Msg {
            val: f(old_val),
            ts,
            view,
        });
        old_val
    }

    pub(crate) fn fence(&mut self, ord: MemOrder) {
        if ord.acquires() {
            let pending = self.acq_pending.clone();
            self.cur.join(&pending);
        }
        if ord.releases() {
            self.fence_rel = self.cur.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vec<Loc>, ThreadMem, ThreadMem) {
        let locs = vec![Loc::new("data", 0, 2), Loc::new("flag", 0, 2)];
        (locs, ThreadMem::new(2), ThreadMem::new(2))
    }

    #[test]
    fn message_passing_release_acquire() {
        let (mut locs, mut w, mut r) = setup();
        // Writer: data = 1 (Relaxed); flag = 1 (Release).
        {
            let (d, rest) = locs.split_at_mut(1);
            w.store(&mut d[0], 0, 1, MemOrder::Relaxed);
            w.store(&mut rest[0], 1, 1, MemOrder::Release);
        }
        // Reader acquires flag = 1: the data floor must rise, so the
        // stale data message becomes unreadable.
        let v = r.load(&locs[1], 1, 1, MemOrder::Acquire);
        assert_eq!(v, 1);
        assert_eq!(
            r.readable(&locs[0], 0),
            vec![1],
            "stale data must be unreadable after the acquire"
        );
    }

    #[test]
    fn relaxed_load_leaves_stale_data_readable() {
        let (mut locs, mut w, mut r) = setup();
        {
            let (d, rest) = locs.split_at_mut(1);
            w.store(&mut d[0], 0, 1, MemOrder::Relaxed);
            w.store(&mut rest[0], 1, 1, MemOrder::Release);
        }
        let v = r.load(&locs[1], 1, 1, MemOrder::Relaxed);
        assert_eq!(v, 1);
        assert_eq!(
            r.readable(&locs[0], 0),
            vec![0, 1],
            "Relaxed must not synchronize"
        );
        // ...until an Acquire fence claims the banked view.
        r.fence(MemOrder::Acquire);
        assert_eq!(r.readable(&locs[0], 0), vec![1]);
    }

    #[test]
    fn release_fence_protects_subsequent_relaxed_store() {
        let (mut locs, mut w, mut r) = setup();
        {
            let (d, rest) = locs.split_at_mut(1);
            w.store(&mut d[0], 0, 1, MemOrder::Relaxed);
            w.fence(MemOrder::Release);
            w.store(&mut rest[0], 1, 1, MemOrder::Relaxed);
        }
        let v = r.load(&locs[1], 1, 1, MemOrder::Acquire);
        assert_eq!(v, 1);
        assert_eq!(r.readable(&locs[0], 0), vec![1]);
    }

    #[test]
    fn rmw_continues_the_release_sequence() {
        let (mut locs, mut w, mut r) = setup();
        {
            let (d, rest) = locs.split_at_mut(1);
            w.store(&mut d[0], 0, 7, MemOrder::Relaxed);
            // Release store of flag=1, then a *Relaxed* RMW bumping it:
            // an Acquire read of the RMW's message must still see data.
            w.store(&mut rest[0], 1, 1, MemOrder::Release);
        }
        let mut other = ThreadMem::new(2);
        other.rmw(&mut locs[1], 1, MemOrder::Relaxed, |v| v + 1);
        let v = r.load(&locs[1], 1, 2, MemOrder::Acquire);
        assert_eq!(v, 2);
        assert_eq!(r.readable(&locs[0], 0), vec![1]);
    }

    #[test]
    fn coherence_forbids_reading_backwards() {
        let (mut locs, mut w, mut r) = setup();
        w.store(&mut locs[0], 0, 1, MemOrder::Relaxed);
        w.store(&mut locs[0], 0, 2, MemOrder::Relaxed);
        let v = r.load(&locs[0], 0, 1, MemOrder::Relaxed);
        assert_eq!(v, 1);
        assert_eq!(
            r.readable(&locs[0], 0),
            vec![1, 2],
            "read-read coherence: the init message is gone"
        );
    }
}
