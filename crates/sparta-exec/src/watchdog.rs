//! Stall watchdog: detects quiet hangs and dumps the flight recorder.
//!
//! The failure class this targets (ROADMAP: the throughput-pool
//! lost-wakeup hang) is the worst kind to debug in CI: every thread is
//! parked, no progress counter moves, and the job's only trace is a
//! timeout hours later with zero state attached. The watchdog inverts
//! that: a monitor thread polls the [`FlightRecorder`]'s monotone
//! `total_events()` counter, and when **no worker has recorded an
//! event for a configurable quiet period while work is still
//! outstanding**, it dumps every ring plus the executor's queue/pool
//! state to stderr (and optionally a file) — the last thing each
//! worker did, straight from its ring. It dumps once per lifetime: a
//! wedged pool would otherwise re-dump every quiet period, so the
//! monitor thread exits after its dump.
//!
//! The watchdog deliberately reads only monotone counters and a
//! caller-supplied `probe` closure; it takes no executor locks itself
//! beyond what the probe does, so it cannot deadlock with the thing it
//! is watching (the probe must scope its own guards — see
//! [`WorkerPool::watchdog`](crate::WorkerPool::watchdog)).

use sparta_obs::{dump_text, FlightRecorder};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`StallWatchdog::spawn`].
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// How long `total_events()` must stay flat (with work outstanding)
    /// before the watchdog declares a stall and dumps.
    pub quiet: Duration,
    /// Poll interval of the monitor thread.
    pub poll: Duration,
    /// If set, the dump is also written to this file (the stderr copy
    /// always happens).
    pub dump_path: Option<PathBuf>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            quiet: Duration::from_secs(2),
            poll: Duration::from_millis(50),
            dump_path: None,
        }
    }
}

/// Handle to a running watchdog thread. Stops and joins on drop.
#[derive(Debug)]
pub struct StallWatchdog {
    stop: Arc<AtomicBool>,
    fired: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl StallWatchdog {
    /// Spawns the monitor thread.
    ///
    /// `probe` is called on every poll where the event counter is flat;
    /// it returns `(outstanding, detail)` — how many units of work are
    /// still pending (0 means "idle, quiet is fine") and a
    /// human-readable state line included in the dump. It runs on the
    /// monitor thread and must not hold locks across the call
    /// boundary longer than needed.
    pub fn spawn(
        recorder: Arc<FlightRecorder>,
        probe: impl Fn() -> (usize, String) + Send + 'static,
        config: WatchdogConfig,
    ) -> StallWatchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let fired = Arc::new(AtomicUsize::new(0));
        let stop2 = Arc::clone(&stop);
        let fired2 = Arc::clone(&fired);
        let handle = std::thread::spawn(move || {
            monitor(&recorder, &probe, &config, &stop2, &fired2);
        });
        StallWatchdog {
            stop,
            fired,
            handle: Some(handle),
        }
    }

    /// How many times the watchdog has dumped (0 or 1).
    pub fn fired(&self) -> usize {
        self.fired.load(Ordering::Relaxed)
    }

    /// Signals the monitor thread to exit (joined on drop).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

impl Drop for StallWatchdog {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the watchdog measures real quiet time; diagnostic-only, never on a query path"
)]
fn monitor(
    recorder: &FlightRecorder,
    probe: &dyn Fn() -> (usize, String),
    config: &WatchdogConfig,
    stop: &AtomicBool,
    fired: &AtomicUsize,
) {
    let mut last_total = recorder.total_events();
    let mut last_change = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(config.poll);
        let total = recorder.total_events();
        if total != last_total {
            last_total = total;
            last_change = Instant::now();
            continue;
        }
        if last_change.elapsed() < config.quiet {
            continue;
        }
        let (outstanding, detail) = probe();
        if outstanding == 0 {
            // Quiet because idle: re-arm so a later stall needs a fresh
            // quiet period.
            last_change = Instant::now();
            continue;
        }
        dump(recorder, outstanding, &detail, config);
        fired.store(1, Ordering::Relaxed);
        return;
    }
}

fn dump(recorder: &FlightRecorder, outstanding: usize, detail: &str, config: &WatchdogConfig) {
    let mut text = String::new();
    text.push_str(&format!(
        "=== sparta stall watchdog: no recorder events for {:?} with {} unit(s) outstanding ===\n",
        config.quiet, outstanding
    ));
    text.push_str(detail);
    if !detail.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&dump_text(recorder));
    eprint!("{text}");
    if let Some(path) = &config.dump_path {
        let write = std::fs::File::create(path).and_then(|mut f| f.write_all(text.as_bytes()));
        if let Err(e) = write {
            eprintln!("sparta stall watchdog: failed to write dump to {path:?}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparta_obs::{ClockMode, EventKind};

    fn fast_config() -> WatchdogConfig {
        WatchdogConfig {
            quiet: Duration::from_millis(40),
            poll: Duration::from_millis(5),
            dump_path: None,
        }
    }

    #[test]
    fn fires_on_quiet_with_outstanding_work() {
        let rec = FlightRecorder::new(1, 16, ClockMode::Logical);
        {
            let _g = rec.install(0);
            sparta_obs::recorder::record(EventKind::Park, 0);
        }
        let wd = StallWatchdog::spawn(
            Arc::clone(&rec),
            || (3, "probe: wedged".into()),
            fast_config(),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while wd.fired() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(wd.fired() >= 1, "watchdog never fired on a wedged probe");
    }

    #[test]
    fn stays_silent_when_idle() {
        let rec = FlightRecorder::new(1, 16, ClockMode::Logical);
        let wd = StallWatchdog::spawn(Arc::clone(&rec), || (0, String::new()), fast_config());
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(wd.fired(), 0, "idle quiet must not fire");
    }

    #[test]
    fn stays_silent_while_events_flow() {
        let rec = FlightRecorder::new(1, 64, ClockMode::Logical);
        let wd = StallWatchdog::spawn(Arc::clone(&rec), || (1, "busy".into()), fast_config());
        let _g = rec.install(0);
        for _ in 0..30 {
            sparta_obs::recorder::record(EventKind::QueuePop, 0);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(wd.fired(), 0, "steady event flow must not fire");
    }

    #[test]
    fn dump_file_written_and_capped() {
        let rec = FlightRecorder::new(2, 16, ClockMode::Logical);
        {
            let _g = rec.install(0);
            sparta_obs::recorder::record(EventKind::Park, 7);
        }
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sparta_watchdog_test_{}.txt", std::process::id()));
        let mut cfg = fast_config();
        cfg.dump_path = Some(path.clone());
        let wd = StallWatchdog::spawn(Arc::clone(&rec), || (1, "probe: stuck".into()), cfg);
        let deadline = Instant::now() + Duration::from_secs(5);
        while wd.fired() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Give it time to tempt a second dump; one dump per lifetime.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(wd.fired(), 1, "a watchdog dumps at most once");
        drop(wd);
        let text = std::fs::read_to_string(&path).expect("dump file written");
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("stall watchdog"), "header present");
        assert!(text.contains("probe: stuck"), "probe detail present");
        assert!(text.contains("park"), "parked worker's last event visible");
    }
}
