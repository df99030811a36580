//! Measurement plumbing: process CPU and memory, percentiles, the
//! in-memory span recorder of traced runs, and the result report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI on mainstream targets).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, exited
/// threads included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, 12 and 13 after the name.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run (`steal` in `/proc/stat`, summed over CPUs), in
/// seconds; 0 where the kernel reports none.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("/proc/stat has a cpu line");
    let steal = cpu.split_whitespace().nth(8).and_then(|v| v.parse::<u64>().ok());
    steal.unwrap_or(0) as f64 / USER_HZ
}

/// The process's resident-set high-water mark, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank percentile `q` (0..=1) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Median of `values`, or 0 when the layer did no work (no samples).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Seconds since `t`, as a float.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer, made from the benchmark's own code.
pub struct Span {
    pub name: &'static str,
    pub dur_ns: u64,
}

/// A per-job quantity recorded at a layer boundary (a count, a size, or
/// a time derived from other measurements).
pub struct Count {
    pub name: &'static str,
    pub value: f64,
}

/// In-memory span and count store of a traced run. Nothing is written
/// until the run ends.
pub struct Spans {
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<Count>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { spans: Mutex::new(Vec::new()), counts: Mutex::new(Vec::new()) }
    }

    /// Runs `f`, recording its wall time as span `name`; returns `f`'s
    /// output and the span's duration in microseconds.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span store").push(Span { name, dur_ns });
        (out, dur_ns as f64 / 1e3)
    }

    pub fn count(&self, name: &'static str, value: f64) {
        self.counts.lock().expect("count store").push(Count { name, value });
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn span_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store");
        spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e3).collect()
    }

    /// Every recorded value of count `name`.
    pub fn values(&self, name: &str) -> Vec<f64> {
        let counts = self.counts.lock().expect("count store");
        counts.iter().filter(|c| c.name == name).map(|c| c.value).collect()
    }

    /// Median duration of `name` spans, microseconds (0 if none).
    pub fn median_us(&self, name: &str) -> f64 {
        median_or_zero(&self.span_us(name))
    }

    /// Median of count `name` (0 if none).
    pub fn median(&self, name: &str) -> f64 {
        median_or_zero(&self.values(name))
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Metrics of one run, by name, each with its unit.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn to_json(&self) -> serde_json::Value {
        let map = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                (name.clone(), serde_json::json!({ "value": *value, "unit": *unit }))
            })
            .collect();
        serde_json::Value::Object(map)
    }
}

// ---------------------------------------------------------------------------
// Window slices
// ---------------------------------------------------------------------------

/// Length of one slice of a measured window: long enough that a slice
/// of the slowest workload (about 60 sweep cells a second) keeps ten
/// samples beyond its p90.
const SLICE: Duration = Duration::from_secs(2);

/// One boundary of a slice: wall instant, process CPU and host steal.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    cpu_s: f64,
    steal_s: f64,
}

impl Mark {
    fn now() -> Mark {
        Mark { at: Instant::now(), cpu_s: cpu_seconds(), steal_s: steal_seconds() }
    }
}

/// Least-squares line through `(xs, ys)`, evaluated at `x = 0`; the
/// median of `ys` when the xs do not vary. The value is kept within half
/// the ys' spread of their range, so a line fitted over slices that all
/// saw much steal never extrapolates far.
fn at_zero(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    if sxx == 0.0 {
        return median_or_zero(ys);
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let (lo, hi) = ys.iter().fold((f64::MAX, f64::MIN), |(lo, hi), y| (lo.min(*y), hi.max(*y)));
    let margin = (hi - lo) / 2.0;
    (my - sxy / sxx * mx).clamp(lo - margin, hi + margin)
}

/// Cuts a measured window into two-second slices, marking the process
/// CPU time and the host's steal time as each boundary is crossed.
///
/// On a shared virtual machine the hypervisor runs other guests on this
/// machine's CPUs for seconds at a time, and the kernel reports that
/// time as steal. It only ever slows the program down: per slice,
/// throughput falls and CPU per job and latency rise in step with the
/// slice's steal, and one run can see three times another's steal. Each
/// time metric is therefore measured per slice and reported as the
/// least-squares fit of the slices' values against their steal,
/// evaluated at zero steal: the figure the program gives on an idle host.
pub struct Slices {
    start: Instant,
    next: AtomicU64,
    marks: Mutex<Vec<Mark>>,
}

impl Slices {
    pub fn start() -> Slices {
        let first = Mark::now();
        Slices { start: first.at, next: AtomicU64::new(1), marks: Mutex::new(vec![first]) }
    }

    pub fn started(&self) -> Instant {
        self.start
    }

    /// Called after each job: the first caller past a boundary marks it.
    pub fn tick(&self) {
        let k = self.next.load(Ordering::Relaxed);
        if self.start.elapsed() >= SLICE * k as u32
            && self.next.compare_exchange(k, k + 1, Ordering::Relaxed, Ordering::Relaxed).is_ok()
        {
            let mark = Mark::now();
            self.marks.lock().expect("slice marks").push(mark);
        }
    }

    /// The window's metrics, given every job's completion instant and
    /// latency (ms).
    pub fn finish(self, jobs: &[(Instant, f64)]) -> SliceStats {
        let end = Mark::now();
        let mut marks = self.marks.into_inner().expect("slice marks");
        // Two clients may cross neighbouring boundaries in either order.
        marks.sort_by_key(|m| m.at);
        marks.push(end);
        let mut stats = SliceStats {
            jobs: jobs.len(),
            fewest_per_slice: jobs.len(),
            wall_s: end.at.duration_since(self.start).as_secs_f64(),
            ..SliceStats::default()
        };
        let mut per_slice: [Vec<f64>; 5] = Default::default();
        for w in marks.windows(2) {
            let (a, b) = (w[0], w[1]);
            let secs = b.at.duration_since(a.at).as_secs_f64();
            let inside: Vec<f64> =
                jobs.iter().filter(|(d, _)| *d >= a.at && *d < b.at).map(|(_, l)| *l).collect();
            // The tail after the last boundary is only the in-flight
            // jobs finishing; it is not a full slice.
            if secs < SLICE.as_secs_f64() / 2.0 || inside.is_empty() {
                continue;
            }
            let values = [
                (b.steal_s - a.steal_s) / secs,
                inside.len() as f64 / secs,
                (b.cpu_s - a.cpu_s) * 1e3 / inside.len() as f64,
                percentile(&inside, 0.5),
                percentile(&inside, 0.9),
            ];
            for (column, value) in per_slice.iter_mut().zip(values) {
                column.push(value);
            }
            stats.slices += 1;
            stats.fewest_per_slice = stats.fewest_per_slice.min(inside.len());
        }
        if stats.slices > 0 {
            let [steal, per_s, cpu, p50, p90] = &per_slice;
            stats.steal_per_s = median(steal);
            stats.jobs_per_s = at_zero(steal, per_s);
            stats.cpu_ms_per_job = at_zero(steal, cpu);
            stats.latency_p50_ms = at_zero(steal, p50);
            stats.latency_p90_ms = at_zero(steal, p90);
        }
        stats
    }
}

/// What [`Slices::finish`] reports: the time metrics at zero steal.
#[derive(Default)]
pub struct SliceStats {
    pub jobs_per_s: f64,
    pub cpu_ms_per_job: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    /// Jobs completed in the window, full slices or not.
    pub jobs: usize,
    /// Full slices, and the fewest jobs one of them held.
    pub slices: usize,
    pub fewest_per_slice: usize,
    /// Median steal of the slices, CPU seconds per second.
    pub steal_per_s: f64,
    pub wall_s: f64,
}
