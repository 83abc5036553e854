//! What every workload shares: run settings, the correctness gate, the
//! span recorder of the traced run, and the result line.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fdm_client::protocol::{QueryReply, StreamSpec};
use fdm_core::dataset::Dataset;
use fdm_core::metric::Metric;
use fdm_core::point::Element;
use fdm_core::solution::Solution;
use fdm_core::streaming::summary::{self, DynSummary};

use crate::stats::{median, steal_shares, valid_metric_name, WINDOW_S};

/// Guess-ladder accuracy of every workload's `OPEN`.
pub const EPSILON: f64 = 0.1;

/// Seed of every generated population. `--seed` picks the arrival order
/// (and so the stream) from it: a population drawn anew per seed moves
/// every figure, the answer's diversity included, by more than any
/// regression bound.
const POPULATION_SEED: u64 = 20_220_501;

/// Rows sampled (and slack applied) when the benchmark estimates the
/// distance bounds it passes in `OPEN`.
const BOUNDS_SAMPLE: usize = 300;
const BOUNDS_SLACK: f64 = 4.0;

/// Settings of one benchmark run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `fdm-serve` binary.
    pub server_bin: PathBuf,
    /// Scratch directory of this run (data dirs, server logs); removed at
    /// exit.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

impl Run {
    /// A fresh subdirectory of the run's scratch directory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work_dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Generates a population of `rows` with `generate` (a `fdm-datasets`
/// generator) from the fixed population seed.
pub fn population(
    generate: impl FnOnce(usize, u64) -> fdm_core::error::Result<Dataset>,
    rows: usize,
) -> Result<Dataset, String> {
    generate(rows, POPULATION_SEED).map_err(|e| e.to_string())
}

/// The first `n` elements of a seeded arrival order over `data`, with ids
/// `0..n`.
pub fn seeded_elements(data: &Dataset, seed: u64, n: usize) -> Vec<Element> {
    fdm_datasets::shuffled_indices(data.len(), seed)[..n]
        .iter()
        .enumerate()
        .map(|(i, &row)| Element::new(i, data.point(row).to_vec(), data.group(row)))
        .collect()
}

/// A seeded arrival order over `data`, `len` elements long: element `i`
/// of the stream is row `order[i % rows]`, with id `i`. A stream longer
/// than the population repeats its order, so a fast machine does not run
/// out of input before the run's time is up.
pub struct Stream {
    pub data: Dataset,
    order: Vec<usize>,
    len: usize,
}

impl Stream {
    pub fn new(data: Dataset, seed: u64, len: usize) -> Stream {
        let order = fdm_datasets::shuffled_indices(data.len(), seed);
        Stream { data, order, len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Stream element `i`.
    pub fn element(&self, i: usize) -> Element {
        let row = self.order[i % self.order.len()];
        Element::new(i, self.data.point(row).to_vec(), self.data.group(row))
    }

    /// Stream elements `range`.
    pub fn elements(&self, range: std::ops::Range<usize>) -> Vec<Element> {
        range.map(|i| self.element(i)).collect()
    }
}

/// The `OPEN` spec for `data`: the workload's algorithm and quotas, with
/// distance bounds sampled from the generated rows.
pub fn open_spec(
    data: &Dataset,
    algo: &str,
    quotas: Vec<usize>,
    metric: Metric,
    shards: usize,
) -> StreamSpec {
    let bounds = data
        .sampled_distance_bounds(BOUNDS_SAMPLE, BOUNDS_SLACK)
        .expect("generated datasets have distinct rows");
    StreamSpec {
        algo: algo.to_string(),
        epsilon: EPSILON,
        dmin: bounds.lower,
        dmax: bounds.upper,
        metric,
        k: quotas.iter().sum(),
        quotas,
        shards,
        window: 0,
    }
}

/// A fresh in-process summary for `spec`.
pub fn build_summary(spec: &StreamSpec) -> Box<dyn DynSummary> {
    summary::build(&spec.to_summary_spec().expect("spec is valid")).expect("summary builds")
}

/// A query answer as the gate compares it: ids in solution order and the
/// diversity's bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub ids: Vec<usize>,
    pub diversity: f64,
}

impl Answer {
    pub fn same(&self, other: &Answer) -> bool {
        self.ids == other.ids && self.diversity.to_bits() == other.diversity.to_bits()
    }
}

impl From<&Solution> for Answer {
    fn from(s: &Solution) -> Answer {
        Answer {
            ids: s.elements.iter().map(|e| e.id).collect(),
            diversity: s.diversity,
        }
    }
}

impl From<QueryReply> for Answer {
    fn from(r: QueryReply) -> Answer {
        Answer {
            ids: r.ids,
            diversity: r.diversity,
        }
    }
}

/// Parses a `QUERY` reply line into an answer.
pub fn parse_query_reply(line: &str) -> Result<Answer, String> {
    use fdm_client::protocol::{Payload, Response};
    match Response::parse(line)? {
        Response::Ok(Payload::Query(reply)) => Ok(reply.into()),
        other => Err(format!("QUERY answered {other:?}")),
    }
}

/// The fairness and objective part of the gate: the answer takes exactly
/// `quotas[g]` elements of each group `g`, names each element once, and
/// its diversity equals the minimum pairwise distance recomputed here.
/// `by_id` maps an element id to the element the generator sent.
pub fn check_answer<'a>(
    answer: &Answer,
    quotas: &[usize],
    metric: Metric,
    by_id: impl Fn(usize) -> Option<&'a Element>,
) -> Result<(), String> {
    let mut counts = vec![0usize; quotas.len()];
    let mut points = Vec::with_capacity(answer.ids.len());
    for &id in &answer.ids {
        let e = by_id(id).ok_or_else(|| format!("answer names unknown id {id}"))?;
        *counts
            .get_mut(e.group)
            .ok_or_else(|| format!("id {id} has group {} outside the quotas", e.group))? += 1;
        points.push(e.point.clone());
    }
    if counts != quotas {
        return Err(format!(
            "group counts {counts:?} differ from quotas {quotas:?}"
        ));
    }
    let mut ids = answer.ids.clone();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != answer.ids.len() {
        return Err("answer repeats an element".into());
    }
    let mut min = f64::INFINITY;
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            min = min.min(metric.dist(&points[i], &points[j]));
        }
    }
    if min.to_bits() != answer.diversity.to_bits() {
        return Err(format!(
            "reported diversity {} differs from the recomputed {min}",
            answer.diversity
        ));
    }
    Ok(())
}

/// Fails with `what` when two answers differ.
pub fn check_same(what: &str, got: &Answer, want: &Answer) -> Result<(), String> {
    if got.same(want) {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// The clock of a timed loop: seconds since the loop started, and the
/// machine's stolen CPU time read from `/proc/stat` at every
/// [`WINDOW_S`] boundary, so a figure can be taken over the quiet windows
/// (see [`crate::stats::quiet_windows`]).
pub struct Clock {
    origin: Instant,
    marks: Vec<(u64, u64)>,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            origin: Instant::now(),
            marks: vec![cpu_ticks()],
        }
    }

    /// Seconds since the start.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Reads the steal counters if a window boundary has passed. Called
    /// once per request, so a reading is late by at most one request.
    pub fn tick(&mut self) {
        let boundary = self.marks.len() as f64 * WINDOW_S;
        if self.now() >= boundary {
            let ticks = cpu_ticks();
            while self.now() >= self.marks.len() as f64 * WINDOW_S {
                self.marks.push(ticks);
            }
        }
    }

    /// Stolen share of CPU time in each complete window.
    pub fn steal(&self) -> Vec<f64> {
        steal_shares(&self.marks)
    }
}

/// `(steal, total)` clock ticks of all CPUs so far, from the `cpu` line of
/// `/proc/stat`; zeros where it cannot be read.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// The median of a set of timed repeats; every repeat goes to stderr in
/// milliseconds, in the order taken, so its spread can be seen.
pub fn median_repeat(what: &str, times: &[f64]) -> f64 {
    let ms: Vec<f64> = times.iter().map(|t| (t * 1e5).round() / 1e2).collect();
    eprintln!("{what}: {} repeats, ms {ms:?}", ms.len());
    median(times).expect("at least one repeat")
}

/// One traced interval.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Request id of the span this one nests under (the same request one
    /// layer up), if any.
    pub parent: Option<u64>,
    pub request: u64,
}

/// In-memory span store of the traced run; written out once, at exit.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Whether [`Tracer::span`] records; off only to measure what
    /// recording costs.
    on: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            on: true,
        }
    }

    /// A tracer whose [`Tracer::span`] runs its closure and records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Runs `f`, recording its interval as span `name` of `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        out
    }

    /// Total seconds and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| {
                (t + (s.end - s.start).as_secs_f64(), n + 1)
            })
    }

    /// Mean seconds of the spans named `name` (0 when there are none).
    pub fn mean(&self, name: &str) -> f64 {
        let (t, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            t / n as f64
        }
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request
            );
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// What a workload returns.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Renders the result line. Refuses names outside the charset and
/// non-finite values, which JSON cannot carry.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, value, unit) in &metrics.0 {
        if !valid_metric_name(name) {
            return Err(format!("metric name {name:?} is outside [A-Za-z0-9_.-]"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// Microbenchmark of `Metric::dist` on pairs of `points`: nanoseconds per
/// call over a fixed number of calls.
pub fn distance_ns(points: &[Element], metric: Metric) -> f64 {
    const CALLS: usize = 400_000;
    let n = points.len().min(1000);
    let start = Instant::now();
    let mut acc = 0.0;
    for i in 0..CALLS {
        let a = &points[i % n].point;
        let b = &points[(i * 7 + 1) % n].point;
        acc += metric.dist(std::hint::black_box(a), std::hint::black_box(b));
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / CALLS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_rejects_bad_metrics() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("kernel.distance_ns", 23.25, "ns");
        assert_eq!(
            result_line(true, 10, 0, &m).unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"kernel.distance_ns\": {\"value\": 23.25, \"unit\": \"ns\"}}}"
        );
        let mut bad = Metrics::default();
        bad.put("p99 ms", 1.0, "ms");
        assert!(result_line(true, 1, 0, &bad).is_err());
        let mut nan = Metrics::default();
        nan.put("query_p99_ms", f64::NAN, "ms");
        assert!(result_line(true, 1, 0, &nan).is_err());
    }

    #[test]
    fn the_gate_rejects_unfair_or_misreported_answers() {
        let elements = [
            Element::new(0, vec![0.0, 0.0], 0),
            Element::new(1, vec![3.0, 4.0], 1),
            Element::new(2, vec![6.0, 8.0], 1),
        ];
        let by_id = |id: usize| elements.get(id);
        let good = Answer {
            ids: vec![0, 1],
            diversity: 5.0,
        };
        assert!(check_answer(&good, &[1, 1], Metric::Euclidean, by_id).is_ok());
        let unfair = Answer {
            ids: vec![1, 2],
            diversity: 5.0,
        };
        assert!(check_answer(&unfair, &[1, 1], Metric::Euclidean, by_id).is_err());
        let misreported = Answer {
            ids: vec![0, 1],
            diversity: 5.000001,
        };
        assert!(check_answer(&misreported, &[1, 1], Metric::Euclidean, by_id).is_err());
        assert!(check_same("x", &good, &misreported).is_err());
        assert!(check_same("x", &good, &good.clone()).is_ok());
    }
}
