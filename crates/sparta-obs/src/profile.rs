//! Deterministic aggregate profiles folded from flight-recorder rings.
//!
//! The flight recorder answers "what happened, in order"; this module
//! answers "where did the time go". [`profile_recorder`] folds every
//! ring's resident events into one [`Profile`]:
//!
//! - a per-worker **utilization breakdown** — busy (job slices), parked
//!   (`Park`/`Unpark`) and queue-wait (job end → next job start) ticks,
//!   each as a fraction of that worker's observed window;
//! - a **per-phase self-time table** from `SpanBegin`/`SpanEnd`
//!   nesting — inclusive totals plus self time (a parent's ticks minus
//!   its children's);
//! - a **flamegraph-collapsed rendering** ([`Profile::to_collapsed`]):
//!   one `worker;phase;subphase ticks` line per observed span stack,
//!   pipeable into `flamegraph.pl`.
//!
//! The fold is a pure function of the event streams: under
//! [`ClockMode::Logical`] every tick is an exact integer and both the
//! JSON and the collapsed text render byte-identical across replays of
//! the same deterministic schedule — CI pins that with a twice-emitted
//! `cmp` golden. The event pairing is the crate's private ring fold,
//! shared with the Chrome trace exporter, so the profile's tables are
//! sums of the trace's slices. This file is under the allocation-ban
//! lint rule: the per-piece accumulation allocates nothing beyond the
//! annotated construction and rendering sites.

use crate::clock::ClockMode;
use crate::fold::{fold_worker, for_each_ring, Piece, SpanFrame};
use crate::json::{Json, Schema};
use crate::recorder::FlightRecorder;
use crate::span::Phase;
use std::fmt::Write as _;

/// Schema version stamped into profile JSON documents.
pub const PROFILE_SCHEMA_VERSION: u64 = 2;

/// Span stacks deeper than this many frames stop extending the
/// collapsed path key (deeper self time folds into the capped frame).
const MAX_STACK_KEY_DEPTH: usize = 15;

/// One worker's utilization breakdown over its observed window
/// (busy + parked + queue_wait ≤ window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerUtilization {
    /// The recording worker's id.
    pub worker: u32,
    /// Events this worker's ring contributed to the fold.
    pub events: u64,
    /// Ticks spanned by this worker's events (last − first).
    pub window_ticks: u64,
    /// Ticks inside `JobStart`/`JobEnd` slices.
    pub busy_ticks: u64,
    /// Ticks inside `Park`/`Unpark` slices.
    pub parked_ticks: u64,
    /// Ticks between finishing a job (or unparking) and starting the
    /// next job — time the worker wanted work but had none running.
    pub queue_wait_ticks: u64,
}

fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl WorkerUtilization {
    /// `busy_ticks` as a fraction of the window (0 on an empty window).
    pub fn busy_fraction(&self) -> f64 {
        fraction(self.busy_ticks, self.window_ticks)
    }

    /// `parked_ticks` as a fraction of the window.
    pub fn parked_fraction(&self) -> f64 {
        fraction(self.parked_ticks, self.window_ticks)
    }

    /// `queue_wait_ticks` as a fraction of the window.
    pub fn queue_wait_fraction(&self) -> f64 {
        fraction(self.queue_wait_ticks, self.window_ticks)
    }
}

/// Aggregate time for one phase across all workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// The phase.
    pub phase: Phase,
    /// Spans of this phase that closed inside the window.
    pub count: u64,
    /// Inclusive ticks (children counted in their parents).
    pub total_ticks: u64,
    /// Exclusive ticks: inclusive minus time spent in nested spans.
    pub self_ticks: u64,
}

/// One observed span stack and its accumulated self ticks — the unit
/// of the collapsed flamegraph rendering. The key packs the stack's
/// phase indices (+1) into 4-bit nibbles, bottom frame most
/// significant, so `(worker, key)` orders deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StackSlot {
    worker: u32,
    key: u64,
    ticks: u64,
}

/// A folded profile; build one with [`profile_recorder`].
#[derive(Debug)]
pub struct Profile {
    /// The recorder clock's mode (timestamp unit: ns or steps).
    pub clock: ClockMode,
    /// Per-worker utilization, workers ascending (quiet rings omitted).
    pub workers: Vec<WorkerUtilization>,
    /// Per-phase self-time table in [`Phase::ALL`] order (phases with
    /// no closed spans omitted).
    pub phases: Vec<PhaseProfile>,
    /// Events folded (resident at read time, across all rings).
    pub events_folded: u64,
    /// Recorder-lifetime events overwritten off ring tails.
    pub dropped_events: u64,
    /// Torn reads skipped while collecting this profile's events.
    pub skipped_reads: u64,
    stacks: Vec<StackSlot>,
}

/// `stack` packed into a collapsed-path key (bottom frame in the most
/// significant nibble).
fn stack_key(stack: &[SpanFrame]) -> u64 {
    let mut key = 0u64;
    for f in stack.iter().take(MAX_STACK_KEY_DEPTH) {
        key = (key << 4) | u64::from(f.phase + 1);
    }
    key
}

fn bump_stack(stacks: &mut Vec<StackSlot>, worker: u32, key: u64, ticks: u64) {
    if let Some(s) = stacks
        .iter_mut()
        .find(|s| s.worker == worker && s.key == key)
    {
        s.ticks += ticks;
        return;
    }
    stacks.push(StackSlot { worker, key, ticks });
}

/// Folds everything currently resident in `rec`'s rings into a
/// [`Profile`]. Deterministic: workers ascending, ring order within a
/// worker; under a logical clock the result renders byte-identically
/// across replays.
pub fn profile_recorder(rec: &FlightRecorder) -> Profile {
    // lint: allow(alloc): fold-wide accumulators, built once per call.
    let mut workers: Vec<WorkerUtilization> = Vec::with_capacity(rec.worker_count());
    // lint: allow(alloc): fold-wide accumulators (see above).
    let mut stacks: Vec<StackSlot> = Vec::new();
    let mut phase_acc = [(0u64, 0u64, 0u64); Phase::ALL.len()]; // (count, inclusive, self)
    let mut events_folded = 0u64;
    let skipped_reads = for_each_ring(rec, |worker, events| {
        events_folded += events.len() as u64;
        let first_ts = events.first().map_or(0, |e| e.ts);
        let last_ts = events.last().map_or(first_ts, |e| e.ts);
        let mut util = WorkerUtilization {
            worker,
            events: events.len() as u64,
            window_ticks: last_ts.saturating_sub(first_ts),
            ..WorkerUtilization::default()
        };
        let mut last_edge = first_ts;
        fold_worker(events, |piece| match piece {
            Piece::Job { dur, .. } => util.busy_ticks += dur,
            Piece::Park { dur, .. } => util.parked_ticks += dur,
            Piece::QueueWait { dur, .. } => util.queue_wait_ticks += dur,
            Piece::SpanEdge { ts, stack } => {
                // Flamegraph self time: the ticks since the previous
                // edge belong to the stack that stood between them.
                let ticks = ts.saturating_sub(last_edge);
                if !stack.is_empty() && ticks > 0 {
                    bump_stack(&mut stacks, worker, stack_key(stack), ticks);
                }
                last_edge = ts;
            }
            Piece::Span { frame, dur } => {
                if let Some(p) = phase_acc.get_mut(usize::from(frame.phase)) {
                    p.0 += 1; // spans closed
                    p.1 += dur; // inclusive total
                    p.2 += dur.saturating_sub(frame.child_ticks); // self
                }
            }
            Piece::Instant(_) => {}
        });
        workers.push(util);
    });
    // lint: allow(alloc): result-table construction, once per fold.
    let mut phases: Vec<PhaseProfile> = Vec::new();
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let (count, total_ticks, self_ticks) = phase_acc[i];
        if count == 0 {
            continue;
        }
        phases.push(PhaseProfile {
            phase: *phase,
            count,
            total_ticks,
            self_ticks,
        });
    }
    stacks.sort_by(|a, b| a.worker.cmp(&b.worker).then(a.key.cmp(&b.key)));
    Profile {
        clock: rec.mode(),
        workers,
        phases,
        events_folded,
        dropped_events: rec.dropped_events(),
        skipped_reads,
        stacks,
    }
}

impl Profile {
    /// Renders the collapsed flamegraph form: one
    /// `worker{N};phase;subphase ticks` line per observed span stack,
    /// sorted (worker, stack) — ready for `flamegraph.pl`.
    pub fn to_collapsed(&self) -> String {
        // lint: allow(alloc): rendering, not the fold path.
        let mut out = String::new();
        for s in &self.stacks {
            let _ = write!(out, "worker{}", s.worker);
            // Decode nibbles top-frame-first, then emit bottom-first.
            let mut frames = [0u8; MAX_STACK_KEY_DEPTH];
            let mut depth = 0;
            let mut key = s.key;
            while key != 0 && depth < MAX_STACK_KEY_DEPTH {
                frames[depth] = (key & 0xf) as u8 - 1;
                key >>= 4;
                depth += 1;
            }
            for d in (0..depth).rev() {
                let name = Phase::from_index(frames[d]).map(|p| p.as_str());
                let _ = write!(out, ";{}", name.unwrap_or("span"));
            }
            let _ = writeln!(out, " {}", s.ticks);
        }
        out
    }

    /// Serializes the profile (insertion-ordered, byte-deterministic
    /// under a logical clock).
    pub fn to_json(&self) -> Json {
        let mode = match self.clock {
            ClockMode::Wall => "wall",
            ClockMode::Logical => "logical",
        };
        let workers: Vec<Json> = self
            .workers
            .iter()
            .map(|w| {
                Json::obj()
                    .with("worker", u64::from(w.worker))
                    .with("events", w.events)
                    .with("window_ticks", w.window_ticks)
                    .with("busy_ticks", w.busy_ticks)
                    .with("busy_fraction", w.busy_fraction())
                    .with("parked_ticks", w.parked_ticks)
                    .with("parked_fraction", w.parked_fraction())
                    .with("queue_wait_ticks", w.queue_wait_ticks)
                    .with("queue_wait_fraction", w.queue_wait_fraction())
            })
            .collect(); // lint: allow(alloc): rendering, not the fold path.
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                Json::obj()
                    .with("phase", p.phase.as_str())
                    .with("count", p.count)
                    .with("total_ticks", p.total_ticks)
                    .with("self_ticks", p.self_ticks)
            })
            .collect(); // lint: allow(alloc): rendering, not the fold path.
        let collapsed: Vec<Json> = self.to_collapsed().lines().map(Json::from).collect(); // lint: allow(alloc): rendering, not the fold path.
        Json::obj()
            .with("schema_version", PROFILE_SCHEMA_VERSION)
            .with("clock", mode)
            .with("events_folded", self.events_folded)
            .with("dropped_events", self.dropped_events)
            .with("skipped_reads", self.skipped_reads)
            .with("workers", Json::Arr(workers))
            .with("phases", Json::Arr(phases))
            .with("collapsed", Json::Arr(collapsed))
    }
}

/// The profile document's contract: the envelope and every table row.
static PROFILE_SCHEMA: Schema = Schema::Obj(&[
    ("schema_version", Schema::Version(PROFILE_SCHEMA_VERSION)),
    ("clock", Schema::OneOf(&["wall", "logical"])),
    ("events_folded dropped_events skipped_reads", Schema::Num),
    ("workers", Schema::Arr(&WORKER_ROW)),
    ("phases", Schema::Arr(&PHASE_ROW)),
    ("collapsed", Schema::Arr(&Schema::Str)),
]);

const WORKER_ROW: Schema = Schema::Obj(&[(
    "worker events window_ticks busy_ticks busy_fraction parked_ticks parked_fraction \
     queue_wait_ticks queue_wait_fraction",
    Schema::Num,
)]);

const PHASE_ROW: Schema = Schema::Obj(&[
    ("phase", Schema::Str),
    ("count total_ticks self_ticks", Schema::Num),
]);

/// Validates a profile document produced by [`Profile::to_json`]:
/// parses the JSON and checks it against the profile schema.
pub fn validate_profile_json(text: &str) -> Result<(), String> {
    PROFILE_SCHEMA.check(&crate::json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockMode;
    use crate::recorder::record;
    use crate::ring::EventKind;

    /// A scripted two-worker recording with nesting and parks; logical
    /// clock so every tick is pinned.
    fn sample_recorder() -> std::sync::Arc<FlightRecorder> {
        let rec = FlightRecorder::new(2, 128, ClockMode::Logical);
        {
            let _g = rec.install(0);
            record(EventKind::JobStart, 1); // t=0
            record(EventKind::SpanBegin, Phase::Plan.index() as u64); // t=1
            record(EventKind::SpanBegin, Phase::TermProcess.index() as u64); // t=2
            record(EventKind::ScoreMark, 3); // t=3
            record(EventKind::SpanEnd, Phase::TermProcess.index() as u64); // t=4
            record(EventKind::SpanEnd, Phase::Plan.index() as u64); // t=5
            record(EventKind::JobEnd, 0); // t=6
            record(EventKind::JobStart, 1); // t=7 (queue_wait 6→7)
            record(EventKind::JobEnd, 0); // t=8
            record(EventKind::Park, 0); // t=9
            record(EventKind::Unpark, 0); // t=10
        }
        {
            let _g = rec.install(1);
            record(EventKind::JobStart, 1);
            record(EventKind::ScoreMark, 0);
            record(EventKind::JobEnd, 0);
        }
        rec
    }

    #[test]
    fn utilization_breakdown_accounts_each_class() {
        let rec = sample_recorder();
        let p = profile_recorder(&rec);
        assert_eq!(p.workers.len(), 2);
        let w0 = &p.workers[0];
        assert_eq!(w0.worker, 0);
        assert_eq!(w0.window_ticks, 10);
        assert_eq!(w0.busy_ticks, 6 + 1, "two job slices");
        assert_eq!(w0.queue_wait_ticks, 1, "job end t=6 → job start t=7");
        assert_eq!(w0.parked_ticks, 1, "park t=9 → unpark t=10");
        assert!((w0.busy_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn phase_self_time_subtracts_children() {
        let rec = sample_recorder();
        let p = profile_recorder(&rec);
        let plan = p.phases.iter().find(|p| p.phase == Phase::Plan).unwrap();
        let term = p
            .phases
            .iter()
            .find(|p| p.phase == Phase::TermProcess)
            .unwrap();
        // plan open t=1..5 (inclusive 4); term_process open t=2..4
        // (inclusive 2, entirely plan's child).
        assert_eq!(term.count, 1);
        assert_eq!(term.total_ticks, 2);
        assert_eq!(term.self_ticks, 2);
        assert_eq!(plan.count, 1);
        assert_eq!(plan.total_ticks, 4);
        assert_eq!(plan.self_ticks, 2, "term_process's 2 ticks excluded");
    }

    #[test]
    fn collapsed_lines_stack_worker_then_phases() {
        let rec = sample_recorder();
        let p = profile_recorder(&rec);
        let collapsed = p.to_collapsed();
        assert!(collapsed.contains("worker0;plan 2\n"), "{collapsed}");
        assert!(
            collapsed.contains("worker0;plan;term_process 2\n"),
            "{collapsed}"
        );
    }

    #[test]
    fn profiles_render_byte_identical_and_validate() {
        let a = profile_recorder(&sample_recorder());
        let b = profile_recorder(&sample_recorder());
        let ja = a.to_json().to_pretty_string(2);
        let jb = b.to_json().to_pretty_string(2);
        assert_eq!(ja, jb);
        assert_eq!(a.to_collapsed(), b.to_collapsed());
        validate_profile_json(&ja).expect("own profile must validate");
        assert!(validate_profile_json("not json").is_err());
    }

    #[test]
    fn schema_rejects_each_broken_required_field() {
        let doc = profile_recorder(&sample_recorder()).to_json();
        let checked = PROFILE_SCHEMA.rejects_each_broken_field(&doc).unwrap();
        assert!(checked > 2 * (8 + 2 * 9), "the envelope and every row");
    }
}
