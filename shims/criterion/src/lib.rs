//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API surface the workspace's benches use —
//! [`criterion_group!`]/[`criterion_main!`], [`Criterion`],
//! [`BenchmarkId`], [`Throughput`], benchmark groups with
//! `sample_size`/`warm_up_time`/`measurement_time`/`throughput`, and
//! `Bencher::iter` — backed by a simple wall-clock loop that prints
//! mean per-iteration times as plain text. No statistics, outlier
//! rejection, or HTML reports; numbers are indicative, not rigorous.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver, passed as `&mut Criterion` to each
/// target registered in [`criterion_group!`].
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Applies command-line configuration. The shim accepts and ignores
    /// the standard flags (it exists so `criterion_group!` expansions
    /// and user code calling it keep compiling).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(500),
            throughput: None,
        }
    }

    /// Benches a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let mut g = self.benchmark_group("ungrouped");
        g.bench_function(id, f);
        g.finish();
        self
    }
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A compound id: `function_name/parameter`.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self {
            label: format!("{function_name}/{parameter}"),
        }
    }

    /// An id that is just the parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { label: s.into() }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        Self { label }
    }
}

/// Units-of-work declaration used to report throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many logical elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measurement samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up duration.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Sets the measurement duration budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Declares per-iteration throughput for subsequent benches.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher {
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            sample_size: self.sample_size,
            mean: Duration::ZERO,
        };
        f(&mut b);
        report(&self.name, &id.label, b.mean, self.throughput);
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group. (Statistics finalization in real criterion; a
    /// no-op here.)
    pub fn finish(self) {}
}

/// Timing loop handle passed to each benchmark closure.
pub struct Bencher {
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
    mean: Duration,
}

impl Bencher {
    /// Measures `routine`, storing the mean per-iteration time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: at least one call, until the warm-up budget is spent.
        let warm_start = Instant::now();
        loop {
            black_box(routine());
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        // Measurement: up to sample_size iterations within the budget.
        let mut iters = 0u32;
        let start = Instant::now();
        loop {
            black_box(routine());
            iters += 1;
            if iters as usize >= self.sample_size || start.elapsed() >= self.measurement_time {
                break;
            }
        }
        self.mean = start.elapsed() / iters;
    }
}

fn report(group: &str, label: &str, mean: Duration, throughput: Option<Throughput>) {
    match throughput {
        Some(Throughput::Elements(n)) if !mean.is_zero() => {
            let rate = n as f64 / mean.as_secs_f64();
            println!("bench {group}/{label}: {mean:?}/iter ({rate:.0} elem/s)");
        }
        Some(Throughput::Bytes(n)) if !mean.is_zero() => {
            let rate = n as f64 / mean.as_secs_f64();
            println!("bench {group}/{label}: {mean:?}/iter ({rate:.0} B/s)");
        }
        _ => println!("bench {group}/{label}: {mean:?}/iter"),
    }
}

/// Declares a benchmark group function that runs each target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim_demo");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5))
            .throughput(Throughput::Elements(100));
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.bench_with_input(BenchmarkId::new("sum_to", 50), &50u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
    }

    criterion_group!(benches, target);

    #[test]
    fn group_runs_and_measures() {
        benches();
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("f", 8).label, "f/8");
        assert_eq!(BenchmarkId::from_parameter(64).label, "64");
        assert_eq!(BenchmarkId::from("plain").label, "plain");
    }
}
