//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Reimplements the criterion 0.5 API subset the workspace's benches use
//! (`criterion_group!` / `criterion_main!`, benchmark groups,
//! `bench_function` / `bench_with_input`, `Bencher::iter` /
//! `iter_batched`, `black_box`) over a simple wall-clock sampler:
//! per bench it takes `sample_size` samples, each long enough to be
//! timeable, and prints min / median / mean per iteration (and, for a
//! group with a [`Throughput`], the median per element).
//!
//! Optional CLI filter: `cargo bench --bench composition -- acp` runs
//! only benchmarks whose full name contains `acp`. `--sample-size N`
//! overrides every group's sample count, as in criterion; 2 is the
//! shortest setting.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimiser from deleting work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortises its setup; the sampler treats all
/// variants identically (setup always runs outside the timed section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// The amount of work one iteration does; the report divides the median
/// by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { name: format!("{name}/{parameter}") }
    }

    /// Just the parameter (the group name provides context).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { name: parameter.to_string() }
    }
}

/// Per-iteration timing collector passed to benchmark closures.
pub struct Bencher {
    samples: usize,
    /// Measured seconds-per-iteration samples.
    recorded: Vec<f64>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher { samples, recorded: Vec::new() }
    }

    /// Times `routine` repeatedly.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warm-up (also primes caches the routine relies on).
        black_box(routine());
        // Choose an iteration count that makes one sample ≥ ~2 ms.
        let probe_start = Instant::now();
        black_box(routine());
        let per_iter = probe_start.elapsed().max(Duration::from_nanos(1));
        let iters = (Duration::from_millis(2).as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.recorded.push(start.elapsed().as_secs_f64() / iters as f64);
        }
    }

    /// Times `routine` over fresh inputs built by `setup` (setup time is
    /// excluded from the measurement).
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.recorded.push(start.elapsed().as_secs_f64());
        }
    }
}

fn human_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn report(name: &str, samples: &mut [f64], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("{name:<50} (no samples)");
        return;
    }
    samples.sort_by(f64::total_cmp);
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let per_element = match throughput {
        Some(Throughput::Elements(n)) if n > 0 => {
            format!("   {}/elem over {n} elems", human_time(median / n as f64))
        }
        _ => String::new(),
    };
    println!(
        "{name:<50} min {:>11}   median {:>11}   mean {:>11}   ({} samples){per_element}",
        human_time(min),
        human_time(median),
        human_time(mean),
        samples.len()
    );
}

/// Top-level benchmark driver.
pub struct Criterion {
    filter: Option<String>,
    default_samples: usize,
    /// `--sample-size N`: overrides the default and every group's own
    /// setting.
    forced_samples: Option<usize>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion::from_args(std::env::args().skip(1))
    }
}

impl Criterion {
    /// First positional argument (if any) filters benchmarks by
    /// substring, like criterion; `--sample-size N` sets the sample
    /// count. Other flags (`--bench`, `--exact`, ...) that cargo
    /// forwards are ignored.
    fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut criterion = Criterion { filter: None, default_samples: 20, forced_samples: None };
        let mut args = args;
        while let Some(arg) = args.next() {
            if arg == "--sample-size" {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sample-size needs a positive integer");
                criterion.forced_samples = Some(n.max(2));
            } else if !arg.starts_with('-') && criterion.filter.is_none() {
                criterion.filter = Some(arg);
            }
        }
        criterion
    }

    fn should_run(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    fn run_one(
        &self,
        name: &str,
        samples: usize,
        throughput: Option<Throughput>,
        f: &mut dyn FnMut(&mut Bencher),
    ) {
        if !self.should_run(name) {
            return;
        }
        let mut bencher = Bencher::new(self.forced_samples.unwrap_or(samples));
        f(&mut bencher);
        report(name, &mut bencher.recorded, throughput);
    }

    /// Runs a standalone benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.run_one(name, self.default_samples, None, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), samples: None, throughput: None }
    }
}

/// A group of related benchmarks sharing a name prefix and sample count.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    samples: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the work per iteration of the benchmarks that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Overrides the number of samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = Some(n.max(2));
        self
    }

    fn samples(&self) -> usize {
        self.samples.unwrap_or(self.criterion.default_samples)
    }

    /// Runs `group/name`.
    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let id: BenchmarkId = id.into();
        let full = format!("{}/{}", self.name, id.name);
        self.criterion.run_one(&full, self.samples(), self.throughput, &mut f);
        self
    }

    /// Runs `group/id` with an explicit input value.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.name);
        self.criterion.run_one(&full, self.samples(), self.throughput, &mut |b| f(b, input));
        self
    }

    /// Ends the group (printing happens eagerly; kept for API parity).
    pub fn finish(&mut self) {}
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId { name: name.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId { name }
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, criterion-style.
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

    #[test]
    fn bencher_records_samples() {
        let mut b = Bencher::new(5);
        b.iter(|| black_box(3u64).wrapping_mul(7));
        assert_eq!(b.recorded.len(), 5);
        assert!(b.recorded.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut b = Bencher::new(4);
        b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert_eq!(b.recorded.len(), 4);
    }

    #[test]
    fn cli_sample_size_is_not_taken_for_the_filter() {
        let args = ["--bench", "--sample-size", "1", "ranked", "extra"].map(String::from);
        let c = Criterion::from_args(args.into_iter());
        assert_eq!(c.forced_samples, Some(2), "2 is the shortest setting");
        assert_eq!(c.filter.as_deref(), Some("ranked"));
        let mut ran = 0;
        c.run_one("group/ranked", 20, Some(Throughput::Elements(8)), &mut |b| {
            b.iter(|| black_box(1u64) + 1);
            ran = b.recorded.len();
        });
        assert_eq!(ran, 2);
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("acp", 50).name, "acp/50");
        assert_eq!(BenchmarkId::from_parameter(0.3).name, "0.3");
    }

    #[test]
    fn groups_run_and_finish() {
        let mut c =
            Criterion { filter: Some("nothing-matches".into()), default_samples: 2, forced_samples: None };
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("skipped", |b| b.iter(|| 1 + 1));
        group.finish();
    }
}
