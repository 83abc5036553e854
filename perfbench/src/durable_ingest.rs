//! `durable_ingest`: the write path. One `fdm-serve --data-dir …
//! --snapshot-every N` node on Adult (Sex, m=2, d=6, Euclidean), SFDM1,
//! unsharded. One connection sends per-element `INSERT`s; a second sends
//! `QUERY` in a closed loop with a fixed think time, each on the stream
//! being written.
//!
//! Every run first writes a fixed state and SIGKILLs and restarts the node
//! on it (`recovery_s`). The timed run then keeps [`IN_FLIGHT`] inserts
//! outstanding and starts a new stream every [`PIPELINED_SEGMENT`]
//! elements: a stream's answer depends on its arrival order, so a run
//! reports figures over several streams.
//! The traced run drives the insert connection as an open loop instead,
//! over a fixed ladder of offered rates, each insert timed from when it
//! was due.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fdm_client::protocol::{Request, StreamSpec};
use fdm_core::metric::Metric;
use fdm_core::point::Element;
use fdm_datasets::{adult, AdultGrouping};
use fdm_serve::{Engine, ServeConfig};

use crate::common::{
    build_summary, check_answer, check_same, distance_ns, median_repeat, open_spec,
    parse_query_reply, population, Answer, Clock, Metrics, Outcome, Run, Span, Stream, Tracer,
};
use crate::layers::persist_cost;
use crate::lineconn::{wait, LineConn};
use crate::replay::{self, Op};
use crate::server::{self, metric_sum, own_connections, own_threads, Server};
use crate::stats::{due_offset, median, percentile, windowed, windowed_rate, OpenLoop, Sample};

/// Inserts kept in flight on the insert connection by [`pipelined`].
const IN_FLIGHT: usize = 32;
/// Elements per stream in [`pipelined`].
const PIPELINED_SEGMENT: usize = 40_000;
/// Rows of the generated population.
const ROWS: usize = 400_000;
/// Length of the generated stream (see [`Stream`]); the timed loop stops
/// early only if a very fast machine uses it up.
const STREAM_LEN: usize = 20_000_000;
/// Elements written before the `recovery_s` restarts: three streams, the
/// last with a WAL tail past its checkpoint, so a restart restores
/// snapshots and replays a log.
const RECOVERY_LOAD: usize = 110_000;
const SNAPSHOT_EVERY: u64 = 20_000;
/// Complete streams of the timed phase that `diversity` takes, after the
/// three of the fixed load: the first ones, so it does not depend on how
/// many streams the machine's speed allowed.
const DIVERSITY_STREAMS: usize = 5;
/// The traced run's open-loop ladder: offered insert rates (elements per
/// second), each with its share of the run. The nominal rung gets the
/// largest share; its p99 is `tail.insert_p99_us`.
const LADDER: [(f64, u32); 4] = [(1_000.0, 1), (2_000.0, 1), (4_000.0, 2), (8_000.0, 1)];
const NOMINAL: usize = 2;
/// Insert p99 limit a rung must meet to count toward `max_rate_eps`.
const LATENCY_LIMIT: Duration = Duration::from_millis(5);
/// Think time of the ladder's `QUERY` loop. Back-to-back queries beside an
/// open loop would keep both cores busy and make the generator late.
const LADDER_THINK: Duration = Duration::from_millis(2);
/// Acknowledged inserts of a stream before its first `QUERY`. A young
/// stream's summary is smaller and answers several times faster, and a
/// very young one may not fill a candidate at all, which the server
/// rightly refuses; querying only the mature half of each stream keeps one
/// cost regime in the latency samples.
const QUERY_WARMUP: usize = PIPELINED_SEGMENT / 2;
/// Think time of [`pipelined`]'s `QUERY` loop. Back-to-back queries kept
/// a third thread busy on two cores and cut the insert rate by a quarter.
const QUERY_THINK: Duration = Duration::from_millis(1);
/// How long the query connection waits before looking again at a stream
/// still short of [`QUERY_WARMUP`].
const WARMUP_POLL: Duration = Duration::from_millis(1);
const QUOTAS: [usize; 2] = [5, 5];
const SETUP_REPEATS: usize = 25;
const RESTARTS: usize = 25;
/// Inserts replayed through each layer in the traced run, with a `QUERY`
/// after every [`REPLAY_QUERY_EVERY`].
const REPLAY_INSERTS: usize = 6_000;
const REPLAY_QUERY_EVERY: usize = 60;
const REPLAY_STREAM: &str = "replay";
/// Generator limits: one thread, two connections (plus the main thread
/// that owns them).
const MAX_THREADS: usize = 2;
const MAX_CONNECTIONS: usize = 2;
/// Acknowledged inserts before [`pipelined`] checks the generator limits.
const LIMITS_CHECK_AT: usize = 1000;

fn server_args(data_dir: &Path) -> Vec<String> {
    vec![
        "--data-dir".into(),
        data_dir.display().to_string(),
        "--snapshot-every".into(),
        SNAPSHOT_EVERY.to_string(),
    ]
}

struct Workload {
    stream: Stream,
    spec: StreamSpec,
}

impl Workload {
    fn len(&self) -> usize {
        self.stream.len()
    }

    fn check(&self, answer: &Answer) -> Result<(), String> {
        let named: Vec<Element> = answer
            .ids
            .iter()
            .filter(|&&id| id < self.len())
            .map(|&id| self.stream.element(id))
            .collect();
        check_answer(answer, &QUOTAS, Metric::Euclidean, |id| {
            named.iter().find(|e| e.id == id)
        })
    }

    /// What an uninterrupted in-process run over elements `sent` (in
    /// order) answers.
    fn reference(&self, sent: &[usize]) -> Result<Answer, String> {
        let mut s = build_summary(&self.spec);
        for &i in sent {
            s.insert(&self.stream.element(i));
        }
        Ok(Answer::from(&s.finalize().map_err(|e| e.to_string())?))
    }

    fn open_line(&self, stream: &str) -> String {
        Request::Open {
            name: stream.into(),
            spec: self.spec.clone(),
        }
        .render()
    }
}

/// The name of the stream whose first element is element `first`.
fn stream_name(first: usize) -> String {
    format!("ingest-{first}")
}

/// A started node with its two generator connections.
struct Node {
    server: Server,
    inserts: LineConn,
    queries: LineConn,
}

fn expect_ok(what: &str, reply: &str) -> Result<(), String> {
    if reply.starts_with("OK ") {
        Ok(())
    } else {
        Err(format!("{what} answered {reply}"))
    }
}

/// Spawns a node on `data_dir` and waits for its first `PING`.
fn start(run: &Run, data_dir: &Path, log: &str) -> Result<(Server, LineConn), String> {
    let (server, stream) = server::start(
        &run.server_bin,
        &server_args(data_dir),
        &run.work_dir.join(log),
    )?;
    let conn = LineConn::new(stream).map_err(|e| e.to_string())?;
    Ok((server, conn))
}

/// `setup_s`: spawn → first `PING` → `OPEN` of the first stream, on a
/// fresh data dir each time; the median of [`SETUP_REPEATS`]. The last
/// node stays up.
fn setup(run: &Run, w: &Workload) -> Result<(f64, Node), String> {
    let mut times = Vec::new();
    let mut node = None;
    for i in 0..SETUP_REPEATS {
        let dir = run.dir(&format!("data-{i}"))?;
        drop(node.take());
        let t = Instant::now();
        let (server, mut inserts) = start(run, &dir, &format!("setup-{i}.log"))?;
        let reply = inserts
            .roundtrip(&w.open_line(&stream_name(0)))
            .map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        expect_ok("OPEN", &reply)?;
        let stream = std::net::TcpStream::connect(&server.addr).map_err(|e| e.to_string())?;
        let queries = LineConn::new(stream).map_err(|e| e.to_string())?;
        node = Some(Node {
            server,
            inserts,
            queries,
        });
    }
    Ok((
        median_repeat("durable_ingest: setup", &times),
        node.expect("repeats"),
    ))
}

/// One stream written by a phase.
struct Segment {
    name: String,
    /// Elements acknowledged (stream indices), in arrival order.
    acked: Vec<usize>,
}

/// Outcome of one pass over the ladder.
struct Ladder {
    ol: OpenLoop,
    rates: Vec<f64>,
    query_s: Vec<f64>,
    stream: Segment,
    failed: u64,
    attempted: u64,
}

/// What a reply on [`pipelined`]'s insert connection answers.
enum Pending {
    Open,
    Insert { segment: usize, element: usize },
}

enum QueryState {
    Idle { at: Duration },
    Opening { segment: usize },
    Waiting { sent: Duration },
}

/// Gates a `QUERY` reply: an answer must pass [`Workload::check`]; an
/// `ERR` counts as a failed request.
fn record_query(w: &Workload, reply: &str, failed: &mut u64) -> Result<(), String> {
    match parse_query_reply(reply) {
        Ok(answer) => w.check(&answer),
        Err(e) => {
            *failed += 1;
            eprintln!("durable_ingest: {e}");
            Ok(())
        }
    }
}

/// Drives the ladder on one fresh stream: rung `r` offers its rate for its
/// share of `unit`s, continuing the element sequence at `next`. One thread
/// multiplexes both connections with `ppoll`, so every reply is stamped
/// when it arrives. Spans go to `tracer`.
fn ladder(
    node: &mut Node,
    w: &Workload,
    next: &mut usize,
    unit: Duration,
    tracer: &mut Tracer,
) -> Result<Ladder, String> {
    let rates: Vec<f64> = LADDER.iter().map(|(rate, _)| *rate).collect();
    let counts = rung_counts(unit);
    let starts: Vec<Duration> = LADDER
        .iter()
        .scan(Duration::ZERO, |at, (_, share)| {
            let start = *at;
            *at += unit * *share;
            Some(start)
        })
        .collect();
    let total: usize = counts.iter().sum();
    if *next + total > w.len() {
        return Err("the generated stream is too short for the ladder".into());
    }
    let name = stream_name(*next);
    for conn in [&mut node.inserts, &mut node.queries] {
        expect_ok(
            "OPEN",
            &conn
                .roundtrip(&w.open_line(&name))
                .map_err(|e| e.to_string())?,
        )?;
    }
    let mut out = Ladder {
        ol: OpenLoop::new(rates.len()),
        rates: rates.clone(),
        query_s: Vec::new(),
        stream: Segment {
            name,
            acked: Vec::with_capacity(total),
        },
        failed: 0,
        attempted: 0,
    };
    let origin = Instant::now();
    let lead = Duration::from_millis(5);
    let (mut rung, mut j, mut sent) = (0usize, 0usize, 0usize);
    let due = |rung: usize, j: usize| lead + starts[rung] + due_offset(j as u64, rates[rung]);
    let mut in_flight: VecDeque<usize> = VecDeque::new();
    let mut query = QueryState::Idle { at: lead };
    let mut line = String::new();
    let mut checked_limits = false;
    loop {
        let now = origin.elapsed();
        while sent < total && due(rung, j) <= now {
            let element = *next + sent;
            line.clear();
            Request::Insert(w.stream.element(element)).render_into(&mut line);
            node.inserts.queue(&line);
            out.ol.on_send(rung, due(rung, j), now);
            in_flight.push_back(element);
            sent += 1;
            j += 1;
            if j == counts[rung] && rung + 1 < counts.len() {
                rung += 1;
                j = 0;
            }
        }
        node.inserts
            .flush()
            .map_err(|e| format!("insert connection: {e}"))?;
        if let QueryState::Idle { at } = query {
            if sent < total && now >= at && out.stream.acked.len() >= QUERY_WARMUP {
                node.queries.queue("QUERY");
                node.queries
                    .flush()
                    .map_err(|e| format!("query connection: {e}"))?;
                query = QueryState::Waiting { sent: now };
            }
        }
        let querying = matches!(query, QueryState::Waiting { .. });
        if sent == total && in_flight.is_empty() && !querying {
            break;
        }
        if !checked_limits && sent > total / 2 {
            checked_limits = true;
            let (threads, connections) = (own_threads(), own_connections());
            if threads > MAX_THREADS || connections > MAX_CONNECTIONS {
                return Err(format!(
                    "generator uses {threads} threads and {connections} connections; \
                     limits are {MAX_THREADS} and {MAX_CONNECTIONS}"
                ));
            }
        }
        let mut wake = Duration::MAX;
        if sent < total {
            wake = due(rung, j);
            if let QueryState::Idle { at } = query {
                if out.stream.acked.len() >= QUERY_WARMUP {
                    wake = wake.min(at);
                }
            }
        }
        let now = origin.elapsed();
        if wake > now {
            let timeout = (wake - now).min(Duration::from_secs(1));
            wait(&[&node.inserts, &node.queries], timeout).map_err(|e| format!("ppoll: {e}"))?;
        }
        let at = origin.elapsed();
        node.inserts
            .fill()
            .map_err(|e| format!("insert connection: {e}"))?;
        while let Some(reply) = node.inserts.next_line() {
            out.ol.on_reply(at).ok_or("reply without a request")?;
            let element = in_flight.pop_front().expect("matched by on_reply");
            out.attempted += 1;
            if reply.starts_with("OK ") {
                out.stream.acked.push(element);
            } else {
                out.failed += 1;
            }
        }
        node.queries
            .fill()
            .map_err(|e| format!("query connection: {e}"))?;
        if let Some(reply) = node.queries.next_line() {
            let QueryState::Waiting { sent: asked } = query else {
                return Err(format!("unrequested reply {reply}"));
            };
            out.attempted += 1;
            out.query_s.push((at - asked).as_secs_f64());
            tracer.spans.push(Span {
                name: "client.query",
                start: asked,
                end: at,
                parent: None,
                request: out.query_s.len() as u64,
            });
            record_query(w, &reply, &mut out.failed)?;
            query = QueryState::Idle {
                at: at + LADDER_THINK,
            };
        }
    }
    // Insert spans run from due time to reply.
    let mut request = *next as u64;
    for (rung, lat) in out.ol.latency.iter().enumerate() {
        for (i, secs) in lat.iter().enumerate() {
            let start = due(rung, i);
            tracer.spans.push(Span {
                name: "client.insert",
                start,
                end: start + Duration::from_secs_f64(*secs),
                parent: None,
                request,
            });
            request += 1;
        }
    }
    *next += total;
    eprintln!(
        "durable_ingest: generator lag p50 {:.0} us, p99 {:.0} us; reply after send p50 {:.0} us, p99 {:.0} us",
        percentile(&out.ol.lag, 50.0).unwrap_or(f64::NAN) * 1e6,
        percentile(&out.ol.lag, 99.0).unwrap_or(f64::NAN) * 1e6,
        percentile(&out.ol.rtt, 50.0).unwrap_or(f64::NAN) * 1e6,
        percentile(&out.ol.rtt, 99.0).unwrap_or(f64::NAN) * 1e6,
    );
    for (r, rate) in out.rates.iter().enumerate() {
        let lat = &out.ol.latency[r];
        eprintln!(
            "durable_ingest: rung {rate}/s: {} inserts, p50 {:.0} us, p99 {:.0} us, backlog at end {}",
            lat.len(),
            percentile(lat, 50.0).unwrap_or(f64::NAN) * 1e6,
            percentile(lat, 99.0).unwrap_or(f64::NAN) * 1e6,
            out.ol.backlog_at_end[r]
        );
    }
    Ok(out)
}

/// Outcome of the pipelined phase. Samples are stamped with their reply
/// time on the phase's clock.
#[derive(Default)]
struct Closed {
    /// Seconds from send to reply of each `INSERT`.
    insert_s: Vec<Sample>,
    /// Seconds from send to reply of each `QUERY`.
    query_s: Vec<Sample>,
    /// One sample of value 1 per acknowledged `INSERT`.
    acked: Vec<Sample>,
    /// Stolen CPU share of each complete window.
    steal: Vec<f64>,
    segments: Vec<Segment>,
    failed: u64,
    attempted: u64,
}

/// A closed loop that keeps [`IN_FLIGHT`] inserts outstanding (each timed
/// from send to reply) while the query connection runs its loop. It sends
/// `elements` in order, starting a new stream every [`PIPELINED_SEGMENT`],
/// and stops early once `budget` (if any) has passed.
fn pipelined(
    node: &mut Node,
    w: &Workload,
    elements: std::ops::Range<usize>,
    budget: Option<Duration>,
) -> Result<Closed, String> {
    let mut out = Closed::default();
    let mut clock = Clock::start();
    let origin = Instant::now();
    let mut in_flight: VecDeque<(Pending, Duration)> = VecDeque::new();
    let mut inserts_in_flight = 0;
    let mut sent = elements.start;
    let mut query = QueryState::Idle { at: Duration::ZERO };
    let mut query_segment = None;
    let mut line = String::new();
    let mut checked_limits = false;
    loop {
        clock.tick();
        let now = origin.elapsed();
        let stop = budget.is_some_and(|budget| now >= budget) || sent == elements.end;
        while !stop && inserts_in_flight < IN_FLIGHT && sent < elements.end {
            let segment = (sent - elements.start) / PIPELINED_SEGMENT;
            if (sent - elements.start).is_multiple_of(PIPELINED_SEGMENT) {
                out.segments.push(Segment {
                    name: stream_name(sent),
                    acked: Vec::with_capacity(PIPELINED_SEGMENT),
                });
                node.inserts
                    .queue(&w.open_line(&out.segments[segment].name));
                in_flight.push_back((Pending::Open, now));
            }
            line.clear();
            Request::Insert(w.stream.element(sent)).render_into(&mut line);
            node.inserts.queue(&line);
            in_flight.push_back((
                Pending::Insert {
                    segment,
                    element: sent,
                },
                now,
            ));
            inserts_in_flight += 1;
            sent += 1;
        }
        node.inserts
            .flush()
            .map_err(|e| format!("insert connection: {e}"))?;
        if let QueryState::Idle { at } = query {
            if !stop && now >= at {
                let segment = out.segments.len() - 1;
                if query_segment != Some(segment) {
                    node.queries
                        .queue(&w.open_line(&out.segments[segment].name));
                    query = QueryState::Opening { segment };
                } else if out.segments[segment].acked.len() >= QUERY_WARMUP {
                    node.queries.queue("QUERY");
                    query = QueryState::Waiting { sent: now };
                } else {
                    query = QueryState::Idle {
                        at: now + WARMUP_POLL,
                    };
                }
                node.queries
                    .flush()
                    .map_err(|e| format!("query connection: {e}"))?;
            }
        }
        if stop && in_flight.is_empty() && matches!(query, QueryState::Idle { .. }) {
            break;
        }
        if !checked_limits && out.insert_s.len() >= LIMITS_CHECK_AT {
            checked_limits = true;
            let (threads, connections) = (own_threads(), own_connections());
            if threads > MAX_THREADS || connections > MAX_CONNECTIONS {
                return Err(format!(
                    "generator uses {threads} threads and {connections} connections; \
                     limits are {MAX_THREADS} and {MAX_CONNECTIONS}"
                ));
            }
        }
        let timeout = match query {
            QueryState::Idle { at } if !stop => at.saturating_sub(origin.elapsed()),
            _ => Duration::from_secs(1),
        };
        if !timeout.is_zero() {
            wait(&[&node.inserts, &node.queries], timeout).map_err(|e| format!("ppoll: {e}"))?;
        }
        let at = origin.elapsed();
        node.inserts
            .fill()
            .map_err(|e| format!("insert connection: {e}"))?;
        while let Some(reply) = node.inserts.next_line() {
            match in_flight.pop_front().ok_or("reply without a request")? {
                (Pending::Open, _) => expect_ok("OPEN", &reply)?,
                (Pending::Insert { segment, element }, asked) => {
                    inserts_in_flight -= 1;
                    out.attempted += 1;
                    out.insert_s
                        .push((at.as_secs_f64(), (at - asked).as_secs_f64()));
                    if reply.starts_with("OK ") {
                        out.acked.push((at.as_secs_f64(), 1.0));
                        out.segments[segment].acked.push(element);
                    } else {
                        out.failed += 1;
                    }
                }
            }
        }
        node.queries
            .fill()
            .map_err(|e| format!("query connection: {e}"))?;
        if let Some(reply) = node.queries.next_line() {
            match query {
                QueryState::Opening { segment } => {
                    expect_ok("OPEN", &reply)?;
                    query_segment = Some(segment);
                    query = QueryState::Idle { at };
                }
                QueryState::Waiting { sent: asked } => {
                    out.attempted += 1;
                    out.query_s
                        .push((at.as_secs_f64(), (at - asked).as_secs_f64()));
                    record_query(w, &reply, &mut out.failed)?;
                    query = QueryState::Idle {
                        at: at + QUERY_THINK,
                    };
                }
                QueryState::Idle { .. } => return Err(format!("unrequested reply {reply}")),
            }
        }
    }
    out.steal = clock.steal();
    Ok(out)
}

impl Ladder {
    /// The highest rung whose p99 meets [`LATENCY_LIMIT`], with no failed
    /// request and no backlog left at its end beyond one limit's worth of
    /// arrivals.
    fn max_rate(&self) -> f64 {
        let mut best = 0.0;
        for (r, rate) in self.rates.iter().enumerate() {
            let p99 = percentile(&self.ol.latency[r], 99.0).unwrap_or(f64::INFINITY);
            let allowed_backlog = (rate * LATENCY_LIMIT.as_secs_f64()).max(16.0) as usize;
            if p99 <= LATENCY_LIMIT.as_secs_f64()
                && self.ol.backlog_at_end[r] <= allowed_backlog
                && self.failed == 0
            {
                best = *rate;
            } else {
                break;
            }
        }
        best
    }
}

/// Each stream's answer over `conn`, gated against an in-process
/// `summary::build` fed the same acknowledged elements in order.
fn final_answers<'a>(
    conn: &mut LineConn,
    w: &Workload,
    segments: impl IntoIterator<Item = &'a Segment>,
) -> Result<Vec<Answer>, String> {
    segments
        .into_iter()
        .map(|seg| {
            expect_ok(
                "OPEN",
                &conn
                    .roundtrip(&w.open_line(&seg.name))
                    .map_err(|e| e.to_string())?,
            )?;
            let answer = parse_query_reply(&conn.roundtrip("QUERY").map_err(|e| e.to_string())?)?;
            w.check(&answer)?;
            check_same(
                &format!("stream {}", seg.name),
                &answer,
                &w.reference(&seg.acked)?,
            )?;
            Ok(answer)
        })
        .collect()
}

/// SIGKILL → restart on the same data dir → `OPEN` → first `QUERY` equal
/// to the pre-kill answer, `count` times; returns the median time. Every
/// stream must come back with every acknowledged element and its pre-kill
/// answer. `node` is left running with fresh connections.
fn restarts(
    run: &Run,
    node: &mut Node,
    data_dir: &Path,
    w: &Workload,
    segments: &[&Segment],
    want: &[Answer],
    count: usize,
) -> Result<f64, String> {
    let mut times = Vec::new();
    for i in 0..count {
        let t = Instant::now();
        node.server.kill();
        let (server, mut conn) = start(run, data_dir, &format!("restart-{i}.log"))?;
        node.server = server;
        for (g, seg) in segments.iter().enumerate() {
            let attached = conn
                .roundtrip(&w.open_line(&seg.name))
                .map_err(|e| e.to_string())?;
            let reply = conn.roundtrip("QUERY").map_err(|e| e.to_string())?;
            if g == 0 {
                times.push(t.elapsed().as_secs_f64());
            }
            let expected = format!("OK attached {} processed={}", seg.name, seg.acked.len());
            if attached != expected {
                return Err(format!(
                    "restart {i}: OPEN answered {attached}, expected {expected}"
                ));
            }
            check_same(
                &format!("restart {i}, stream {}", seg.name),
                &parse_query_reply(&reply)?,
                &want[g],
            )?;
        }
        node.inserts = conn;
        let stream = std::net::TcpStream::connect(&node.server.addr).map_err(|e| e.to_string())?;
        node.queries = LineConn::new(stream).map_err(|e| e.to_string())?;
    }
    Ok(median_repeat("durable_ingest: recovery", &times))
}

/// Inserts each rung offers when one share lasts `unit`.
fn rung_counts(unit: Duration) -> Vec<usize> {
    LADDER
        .iter()
        .map(|(rate, share)| (rate * (unit * *share).as_secs_f64()) as usize)
        .collect()
}

fn workload(run: &Run) -> Result<(Workload, Duration), String> {
    // The traced run spends the whole budget on one ladder.
    let shares: u32 = LADDER.iter().map(|(_, share)| share).sum();
    let unit = Duration::from_secs_f64(run.seconds / f64::from(shares));
    let stream = Stream::new(
        population(|n, s| adult(AdultGrouping::Sex, n, s), ROWS)?,
        run.seed,
        STREAM_LEN,
    );
    let spec = open_spec(&stream.data, "sfdm1", QUOTAS.to_vec(), Metric::Euclidean, 1);
    Ok((Workload { stream, spec }, unit))
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (w, unit) = workload(run)?;
    let (setup, mut node) = setup(run, &w)?;
    let data_dir = run.work_dir.join(format!("data-{}", SETUP_REPEATS - 1));
    let mut m = Metrics::default();

    // The restarts run on a fixed state, so a restart's work does not grow
    // with how fast the run went.
    let load = pipelined(&mut node, &w, 0..RECOVERY_LOAD, None)?;
    let loaded: Vec<&Segment> = load.segments.iter().collect();
    let want = final_answers(&mut node.queries, &w, loaded.iter().copied())?;
    // Memory after a fixed amount of work, for the same reason.
    let rss = node.server.peak_rss_mb()?;
    let recovery = restarts(run, &mut node, &data_dir, &w, &loaded, &want, RESTARTS)?;

    if !run.trace {
        let c = pipelined(
            &mut node,
            &w,
            RECOVERY_LOAD..w.len(),
            Some(Duration::from_secs_f64(run.seconds)),
        )?;
        let all: Vec<&Segment> = load.segments.iter().chain(&c.segments).collect();
        let answers = final_answers(&mut node.queries, &w, all.iter().copied())?;
        restarts(run, &mut node, &data_dir, &w, &all, &answers, 1)?;
        if c.segments.len() <= DIVERSITY_STREAMS {
            return Err(format!("only {} streams written", c.segments.len()));
        }
        let diversities: Vec<f64> = answers[..load.segments.len() + DIVERSITY_STREAMS]
            .iter()
            .map(|a| a.diversity)
            .collect();
        let steal = &c.steal;
        eprintln!(
            "durable_ingest: {} inserts acknowledged; stolen CPU per window {:?}",
            c.acked.len(),
            steal
        );
        m.put("setup_s", setup, "s");
        m.put("ingest_eps", windowed_rate(&c.acked, steal)?, "el/s");
        m.put(
            "insert_p50_us",
            windowed(&c.insert_s, steal, 50.0)? * 1e6,
            "us",
        );
        m.put(
            "query_p50_ms",
            windowed(&c.query_s, steal, 50.0)? * 1e3,
            "ms",
        );
        m.put("peak_mem_mb", rss, "MiB");
        m.put("diversity", median(&diversities).expect("segments"), "dist");
        return Ok(Outcome {
            attempted: load.attempted + c.attempted,
            failed: load.failed + c.failed,
            metrics: m,
        });
    }

    let mut tracer = Tracer::new();
    let cpu_before = node.server.cpu_ms()?;
    let mut next = RECOVERY_LOAD;
    let traced = ladder(&mut node, &w, &mut next, unit, &mut tracer)?;
    let cpu_ms = node.server.cpu_ms()? - cpu_before;
    final_answers(&mut node.queries, &w, [&traced.stream])?;
    let scrape = node.server.scrape()?;
    drop(node);

    let traced_acked = traced.stream.acked.len();
    m.put("recovery_s", recovery, "s");
    m.put(
        "generator.lag_p99_ms",
        percentile(&traced.ol.lag, 99.0)? * 1e3,
        "ms",
    );
    m.put(
        "generator.backlog_max",
        traced.ol.backlog_max as f64,
        "count",
    );
    m.put("generator.max_rate_eps", traced.max_rate(), "el/s");
    m.put(
        "tail.insert_p99_us",
        percentile(&traced.ol.latency[NOMINAL], 99.0)? * 1e6,
        "us",
    );
    m.put(
        "tail.query_p99_ms",
        percentile(&traced.query_s, 99.0)? * 1e3,
        "ms",
    );
    m.put(
        "server.cpu_ms_per_kop",
        cpu_ms / (traced_acked as f64 / 1e3),
        "ms",
    );
    m.put(
        "persist.checkpoints_full",
        metric_sum(&scrape, "fdm_snapshots_total", "kind=\"full\""),
        "count",
    );
    let deltas = metric_sum(&scrape, "fdm_snapshots_total", "kind=\"delta\"");
    m.put("persist.checkpoints_delta", deltas, "count");
    m.put(
        "persist.compactions",
        metric_sum(&scrape, "fdm_compactions_total", ""),
        "count",
    );
    let dirty = metric_sum(&scrape, "fdm_delta_dirty_bytes_total", "");
    m.put(
        "persist.bytes_delta",
        if deltas > 0.0 { dirty / deltas } else { 0.0 },
        "bytes",
    );
    m.put(
        "engine.wal_records",
        metric_sum(&scrape, "fdm_wal_records_total", ""),
        "count",
    );
    m.put(
        "engine.busy_rejections",
        metric_sum(&scrape, "fdm_busy_rejections_total", ""),
        "count",
    );

    // Layer replays of one identical request sequence.
    let ops: Vec<Op> = w
        .stream
        .elements(0..REPLAY_INSERTS)
        .into_iter()
        .enumerate()
        .flat_map(|(i, e)| {
            let q = (i + 1) % REPLAY_QUERY_EVERY == 0;
            std::iter::once(Op::Insert(e)).chain(q.then_some(Op::Query { cached: false }))
        })
        .collect();
    let mut spans = Tracer::new();
    let dir = run.dir("replay-client")?;
    let (mut server, _) = server::start(
        &run.server_bin,
        &server_args(&dir),
        &run.work_dir.join("replay.log"),
    )?;
    let l1 = replay::client(&mut spans, &server.addr, REPLAY_STREAM, &w.spec, &ops)?;
    server.kill();
    let config = |dir: &Path| ServeConfig {
        data_dir: Some(dir.to_path_buf()),
        snapshot_every: Some(SNAPSHOT_EVERY),
        ..ServeConfig::default()
    };
    let engine2 =
        Arc::new(Engine::new(config(&run.dir("replay-session")?)).map_err(|e| e.to_string())?);
    let l2 = replay::session(&mut spans, engine2, REPLAY_STREAM, &w.spec, &ops)?;
    let engine3 = Engine::new(config(&run.dir("replay-engine")?)).map_err(|e| e.to_string())?;
    let l3 = replay::engine(&mut spans, &engine3, REPLAY_STREAM, &w.spec, &ops)?;
    drop(engine3);
    let (l4, summary) = replay::summary(&mut spans, &w.spec, &ops)?;
    replay::check_layers(&[
        ("client", &l1),
        ("session", &l2),
        ("engine", &l3),
        ("summary", &l4),
    ])?;

    replay::put_layer_metrics(&mut m, &spans);
    m.put(
        "streaming.insert_ns",
        spans.mean("streaming.insert") * 1e9,
        "ns",
    );
    m.put(
        "streaming.finalize_ms",
        spans.mean("streaming.finalize") * 1e3,
        "ms",
    );
    m.put(
        "streaming.stored",
        summary.stored_elements() as f64,
        "count",
    );
    let (render_ns, parse_ns, bytes) = replay::protocol_cost(&ops)?;
    m.put("protocol.render_ns", render_ns, "ns");
    m.put("protocol.parse_ns", parse_ns, "ns");
    m.put("protocol.bytes_per_elem", bytes, "bytes");
    m.put(
        "trace.overhead_pct",
        replay::overhead_pct(&w.spec, &ops)?,
        "%",
    );
    let cost = persist_cost(summary.as_ref(), 20)?;
    m.put("persist.capture_us", cost.capture_us, "us");
    m.put("persist.encode_us", cost.encode_us, "us");
    m.put("persist.decode_us", cost.decode_us, "us");
    m.put("persist.restore_us", cost.restore_us, "us");
    m.put("persist.bytes_full", cost.bytes as f64, "bytes");
    m.put(
        "kernel.distance_ns",
        distance_ns(&w.stream.elements(0..1000), Metric::Euclidean),
        "ns",
    );

    tracer.spans.extend(spans.spans);
    tracer.write(
        &run.trace_dir
            .join(format!("durable_ingest-{}.jsonl", run.seed)),
    )?;
    Ok(Outcome {
        attempted: load.attempted + traced.attempted,
        failed: load.failed + traced.failed,
        metrics: m,
    })
}
