//! `cluster_refresh`: the read path. A coordinator and two worker
//! `fdm-serve` processes (no data dir) on CelebA (Sex+Age, m=4, d=41,
//! Manhattan), SFDM2. One closed-loop connection repeats a cycle: an
//! `INSERTB` burst, a `QUERY` (delta refresh: `MERGE since=`, per-worker
//! restore, `merge_summary_parts`, merged `finalize`), and a repeat
//! `QUERY` (answered from the coordinator's cache).

use std::sync::Arc;
use std::time::{Duration, Instant};

use fdm_client::client::Client;
use fdm_client::protocol::StreamSpec;
use fdm_core::metric::Metric;
use fdm_core::point::Element;
use fdm_datasets::{celeba, CelebaGrouping};
use fdm_serve::{Engine, ServeConfig};

use crate::common::{
    build_summary, check_answer, check_same, distance_ns, median_repeat, open_spec, population,
    Answer, Clock, Metrics, Outcome, Run, Span, Stream, Tracer,
};
use crate::layers::{merge_parts_ms, persist_cost};
use crate::replay::{self, Op};
use crate::server::{self, metric_sum, own_connections, own_threads, Server};
use crate::stats::{median, percentile, windowed, windowed_rate, Sample};

const WORKERS: usize = 2;
const QUOTAS: [usize; 4] = [2, 2, 2, 2];
/// Elements per `INSERTB` burst.
const BURST: usize = 32;
/// Rows of the generated population.
const ROWS: usize = 256_000;
/// Length of the generated stream (see [`Stream`]); the loop stops early
/// only if a very fast machine uses it up.
const STREAM_LEN: usize = 20_000_000;
const STREAM: &str = "cluster";
const SETUP_REPEATS: usize = 25;
const RESTARTS: usize = 25;
/// Every this many cycles the delta answer is kept for the reference check.
const CHECK_EVERY: usize = 100;
/// Kept answers that `diversity` is the median of: the first ones, so it
/// does not depend on how far the machine's speed let the stream get.
const DIVERSITY_ANSWERS: usize = 20;
const REPLAY_CYCLES: usize = 100;
/// Cycles' worth of elements sent in one untimed `INSERTB` before the
/// loop: a stream of a few bursts may not fill a candidate yet, which the
/// server rightly refuses to answer.
const WARMUP_CYCLES: usize = 32;
/// Generator limits, checked once the loop is running.
const MAX_THREADS: usize = 2;
const MAX_CONNECTIONS: usize = 2;
const LIMITS_CHECK_AT: usize = 100;

struct Workload {
    stream: Stream,
    /// Coordinator streams take `shards=1`: the workers are the shards.
    spec: StreamSpec,
    /// The single-process equivalent: `shards=2`.
    sharded: StreamSpec,
}

impl Workload {
    fn element(&self, i: usize) -> Element {
        self.stream.element(i)
    }

    fn burst(&self, cycle: usize) -> Vec<Element> {
        self.stream.elements(cycle * BURST..(cycle + 1) * BURST)
    }

    fn cycles(&self) -> usize {
        self.stream.len() / BURST
    }

    fn check(&self, answer: &Answer) -> Result<(), String> {
        let lookup: Vec<Element> = answer
            .ids
            .iter()
            .filter(|&&id| id < self.stream.len())
            .map(|&id| self.element(id))
            .collect();
        check_answer(answer, &QUOTAS, Metric::Manhattan, |id| {
            lookup.iter().find(|e| e.id == id)
        })
    }
}

/// The three processes of one cluster.
struct Cluster {
    workers: Vec<Server>,
    coordinator: Server,
}

impl Cluster {
    fn coordinator_args(worker_addrs: &[String]) -> Vec<String> {
        worker_addrs
            .iter()
            .flat_map(|a| ["--worker".to_string(), a.clone()])
            .collect()
    }

    /// Spawns the workers and the coordinator together, then waits for
    /// each to answer `PING`. Starts the whole cluster again on fresh
    /// ports if that fails (a process that lost its port exits).
    fn start(run: &Run, tag: &str) -> Result<Cluster, String> {
        let mut last = String::new();
        for _ in 0..server::SPAWN_ATTEMPTS {
            match Self::spawn(run, tag) {
                Ok(cluster) => return Ok(cluster),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn spawn(run: &Run, tag: &str) -> Result<Cluster, String> {
        let log = |name: &str| run.work_dir.join(format!("{tag}-{name}.log"));
        let mut workers = (0..WORKERS)
            .map(|i| Server::spawn(&run.server_bin, &[], &log(&format!("worker{i}"))))
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
        let mut coordinator = Server::spawn(
            &run.server_bin,
            &Self::coordinator_args(&addrs),
            &log("coordinator"),
        )?;
        for w in &mut workers {
            drop(w.connect_ready()?);
        }
        drop(coordinator.connect_ready()?);
        Ok(Cluster {
            workers,
            coordinator,
        })
    }

    fn restart_coordinator(&mut self, run: &Run, tag: &str) -> Result<(), String> {
        self.coordinator.kill();
        let addrs: Vec<String> = self.workers.iter().map(|w| w.addr.clone()).collect();
        let (coordinator, _) = server::start(
            &run.server_bin,
            &Self::coordinator_args(&addrs),
            &run.work_dir.join(format!("{tag}-coordinator.log")),
        )?;
        self.coordinator = coordinator;
        Ok(())
    }

    fn all(&self) -> impl Iterator<Item = &Server> {
        self.workers
            .iter()
            .chain(std::iter::once(&self.coordinator))
    }

    fn cpu_ms(&self) -> Result<f64, String> {
        self.all().map(Server::cpu_ms).sum()
    }
}

fn connect(cluster: &Cluster, spec: &StreamSpec) -> Result<(Client, usize), String> {
    let mut client = Client::connect_tcp(&cluster.coordinator.addr).map_err(|e| e.to_string())?;
    let processed = client.open(STREAM, spec).map_err(|e| e.to_string())?;
    Ok((client, processed))
}

/// `setup_s`: spawn the three processes → all answer `PING` → `OPEN`
/// through the coordinator; the median of [`SETUP_REPEATS`].
fn setup(run: &Run, spec: &StreamSpec) -> Result<(f64, Cluster, Client), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let cluster = Cluster::start(run, &format!("setup{i}"))?;
        let (client, _) = connect(&cluster, spec)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((cluster, client));
    }
    let (cluster, client) = last.expect("repeats");
    Ok((
        median_repeat("cluster_refresh: setup", &times),
        cluster,
        client,
    ))
}

/// One closed-loop phase. Samples are stamped with their reply time on the
/// phase's clock.
#[derive(Default)]
struct Phase {
    /// Seconds of each `INSERTB`.
    insert_s: Vec<Sample>,
    /// Seconds of each delta-refresh `QUERY`.
    query_s: Vec<Sample>,
    /// Elements acknowledged by each `INSERTB`.
    acked: Vec<Sample>,
    /// Stolen CPU share of each complete window.
    steal: Vec<f64>,
    elements: usize,
    /// `(elements inserted so far, delta answer)` kept for the reference.
    checkpoints: Vec<(usize, Answer)>,
    last: Option<Answer>,
    failed: u64,
}

/// Cycles from `*cycle` on until `budget` has passed or the stream is
/// exhausted.
fn closed_loop(
    client: &mut Client,
    w: &Workload,
    cycle: &mut usize,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let mut clock = Clock::start();
    let start = Instant::now();
    let mut ran = 0;
    while start.elapsed() < budget && *cycle < w.cycles() {
        let batch = w.burst(*cycle);
        let request = *cycle as u64 * 3;
        let t0 = Instant::now();
        let (_, count) = client
            .insert_batch(&batch)
            .map_err(|e| format!("INSERTB: {e}"))?;
        let t1 = Instant::now();
        let delta: Answer = client
            .query(None)
            .map_err(|e| format!("QUERY: {e}"))?
            .into();
        let t2 = Instant::now();
        let cached: Answer = client
            .query(None)
            .map_err(|e| format!("QUERY: {e}"))?
            .into();
        let t3 = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            for (i, (name, a, b)) in [
                ("client.insertb", t0, t1),
                ("client.query", t1, t2),
                ("client.query_cached", t2, t3),
            ]
            .into_iter()
            .enumerate()
            {
                tr.spans.push(Span {
                    name,
                    start: a - start,
                    end: b - start,
                    parent: None,
                    request: request + i as u64,
                });
            }
        }
        let at = |t: Instant| (t - start).as_secs_f64();
        p.insert_s.push((at(t1), (t1 - t0).as_secs_f64()));
        p.acked.push((at(t1), count as f64));
        p.query_s.push((at(t2), (t2 - t1).as_secs_f64()));
        clock.tick();
        if count != batch.len() {
            p.failed += 1;
        }
        p.elements += count;
        w.check(&delta)?;
        check_same("cached QUERY", &cached, &delta)?;
        *cycle += 1;
        ran += 1;
        if cycle.is_multiple_of(CHECK_EVERY) {
            p.checkpoints.push((*cycle * BURST, delta.clone()));
        }
        if ran == LIMITS_CHECK_AT {
            let (threads, connections) = (own_threads(), own_connections());
            if threads > MAX_THREADS || connections > MAX_CONNECTIONS {
                return Err(format!(
                    "generator uses {threads} threads and {connections} connections; limits are {MAX_THREADS} and {MAX_CONNECTIONS}"
                ));
            }
        }
        p.last = Some(delta);
    }
    p.steal = clock.steal();
    Ok(p)
}

/// Coordinator ≡ `ShardedStream`: a `shards=2` summary fed the same
/// arrival order answers every kept checkpoint identically.
fn check_reference(w: &Workload, checkpoints: &[(usize, Answer)]) -> Result<(), String> {
    let mut s = build_summary(&w.sharded);
    let mut fed = 0;
    for (upto, want) in checkpoints {
        while fed < *upto {
            let end = (fed + 4096).min(*upto);
            let batch: Vec<Element> = (fed..end).map(|i| w.element(i)).collect();
            s.insert_batch(&batch);
            fed = end;
        }
        let got = Answer::from(&s.finalize().map_err(|e| e.to_string())?);
        check_same(
            &format!("coordinator vs shards=2 after {upto} elements"),
            &got,
            want,
        )?;
    }
    Ok(())
}

fn workload(seed: u64) -> Result<Workload, String> {
    let stream = Stream::new(
        population(|n, s| celeba(CelebaGrouping::SexAge, n, s), ROWS)?,
        seed,
        STREAM_LEN,
    );
    let spec = open_spec(&stream.data, "sfdm2", QUOTAS.to_vec(), Metric::Manhattan, 1);
    let sharded = StreamSpec {
        shards: WORKERS,
        ..spec.clone()
    };
    Ok(Workload {
        stream,
        spec,
        sharded,
    })
}

/// `recovery_s`: SIGKILL the coordinator → restart → `OPEN` → first
/// `QUERY` (full re-anchor from the workers) equal to the pre-kill
/// answer; the median of [`RESTARTS`].
fn restarts(
    run: &Run,
    cluster: &mut Cluster,
    w: &Workload,
    want: &Answer,
    processed: usize,
) -> Result<f64, String> {
    let mut times = Vec::new();
    for i in 0..RESTARTS {
        let t = Instant::now();
        cluster.restart_coordinator(run, &format!("restart{i}"))?;
        let (mut client, attached) = connect(cluster, &w.spec)?;
        let got: Answer = client.query(None).map_err(|e| e.to_string())?.into();
        times.push(t.elapsed().as_secs_f64());
        check_same(&format!("answer after coordinator restart {i}"), &got, want)?;
        if attached != processed {
            return Err(format!(
                "restart {i} attached at {attached}, expected {processed}"
            ));
        }
    }
    Ok(median_repeat("cluster_refresh: recovery", &times))
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let w = workload(run.seed)?;
    let budget = Duration::from_secs_f64(run.seconds);
    let (setup, mut cluster, mut client) = setup(run, &w.spec)?;
    client
        .insert_batch(&w.stream.elements(0..WARMUP_CYCLES * BURST))
        .map_err(|e| format!("warm-up INSERTB: {e}"))?;
    let mut cycle = WARMUP_CYCLES;
    let mut m = Metrics::default();

    if !run.trace {
        let p = closed_loop(&mut client, &w, &mut cycle, budget, None)?;
        drop(client);
        check_reference(&w, &p.checkpoints)?;
        let last = p.last.clone().ok_or("no cycle ran")?;
        let rss: f64 = cluster
            .all()
            .map(Server::peak_rss_mb)
            .sum::<Result<f64, String>>()?;
        restarts(run, &mut cluster, &w, &last, cycle * BURST)?;
        let steal = &p.steal;
        eprintln!("cluster_refresh: stolen CPU per window {steal:?}");
        m.put("setup_s", setup, "s");
        m.put("ingest_eps", windowed_rate(&p.acked, steal)?, "el/s");
        m.put(
            "insert_p50_us",
            windowed(&p.insert_s, steal, 50.0)? * 1e6,
            "us",
        );
        m.put(
            "query_p50_ms",
            windowed(&p.query_s, steal, 50.0)? * 1e3,
            "ms",
        );
        m.put("peak_mem_mb", rss, "MiB");
        let diversities: Vec<f64> = p
            .checkpoints
            .get(..DIVERSITY_ANSWERS)
            .ok_or(format!("only {} answers kept", p.checkpoints.len()))?
            .iter()
            .map(|(_, a)| a.diversity)
            .collect();
        m.put("diversity", median(&diversities).expect("answers"), "dist");
        return Ok(Outcome {
            attempted: 3 * p.insert_s.len() as u64,
            failed: p.failed,
            metrics: m,
        });
    }

    let mut tracer = Tracer::new();
    let cpu_before = cluster.cpu_ms()?;
    let traced = closed_loop(&mut client, &w, &mut cycle, budget, Some(&mut tracer))?;
    let cpu_ms = cluster.cpu_ms()? - cpu_before;
    drop(client);
    check_reference(&w, &traced.checkpoints)?;
    let scrape = cluster.coordinator.scrape()?;
    let last = traced.last.clone().ok_or("no cycle ran")?;
    let recovery = restarts(run, &mut cluster, &w, &last, cycle * BURST)?;
    drop(cluster);
    m.put("recovery_s", recovery, "s");

    let tail = |samples: &[Sample]| {
        let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        percentile(&values, 99.0)
    };
    m.put("tail.insert_p99_us", tail(&traced.insert_s)? * 1e6, "us");
    m.put("tail.query_p99_ms", tail(&traced.query_s)? * 1e3, "ms");
    m.put(
        "server.cpu_ms_per_kop",
        cpu_ms / (traced.elements as f64 / 1e3),
        "ms",
    );
    m.put(
        "coordinator.merge_bytes_full",
        metric_sum(&scrape, "fdm_merge_bytes_total", "kind=\"full\""),
        "bytes",
    );
    m.put(
        "coordinator.merge_bytes_delta",
        metric_sum(&scrape, "fdm_merge_bytes_total", "kind=\"delta\""),
        "bytes",
    );
    let queries = metric_sum(&scrape, "fdm_coord_query_latency_seconds_count", "");
    let hits = metric_sum(&scrape, "fdm_merge_cache_hits_total", "");
    m.put(
        "coordinator.cache_hit_ratio",
        if queries > 0.0 { hits / queries } else { 0.0 },
        "ratio",
    );
    m.put(
        "coordinator.worker_failures",
        metric_sum(&scrape, "fdm_worker_failures_total", ""),
        "count",
    );

    // Layer replays of one identical request sequence.
    let replayed = WARMUP_CYCLES + REPLAY_CYCLES;
    let ops: Vec<Op> = std::iter::once(Op::Load(w.stream.elements(0..WARMUP_CYCLES * BURST)))
        .chain((WARMUP_CYCLES..replayed).flat_map(|c| {
            [
                Op::Batch(w.burst(c)),
                Op::Query { cached: false },
                Op::Query { cached: true },
            ]
        }))
        .collect();
    let mut spans = Tracer::new();
    let l1 = {
        let c = Cluster::start(run, "replay1")?;
        replay::client(&mut spans, &c.coordinator.addr, STREAM, &w.spec, &ops)?
    };
    let coordinator_config = |tag: &str| -> Result<(Cluster, ServeConfig), String> {
        let c = Cluster::start(run, tag)?;
        let config = ServeConfig {
            workers: c.workers.iter().map(|w| w.addr.clone()).collect(),
            ..ServeConfig::default()
        };
        Ok((c, config))
    };
    let l2 = {
        let (_c, config) = coordinator_config("replay2")?;
        let engine = Arc::new(Engine::new(config).map_err(|e| e.to_string())?);
        replay::session(&mut spans, engine, STREAM, &w.spec, &ops)?
    };
    let (l3, reanchors) = {
        let (_c, config) = coordinator_config("replay3")?;
        let engine = Engine::new(config).map_err(|e| e.to_string())?;
        let answers = replay::engine(&mut spans, &engine, STREAM, &w.spec, &ops)?;
        // A second pass over fresh cycles counts full frames pulled after
        // the first anchor: every one is a wasted re-anchor.
        let full = |e: &Engine| {
            metric_sum(
                &e.render_metrics(),
                "fdm_merge_bytes_total",
                "kind=\"full\"",
            )
        };
        let mut reanchors = 0;
        for c in replayed..replayed + REPLAY_CYCLES {
            engine
                .insert_batch(STREAM, &w.burst(c))
                .map_err(|e| e.message)?;
            let before = full(&engine);
            engine.query(STREAM, None).map_err(|e| e.message)?;
            if full(&engine) > before {
                reanchors += 1;
            }
        }
        (answers, reanchors)
    };
    let (l4, summary) = replay::summary(&mut spans, &w.sharded, &ops)?;
    replay::check_layers(&[
        ("client", &l1),
        ("session", &l2),
        ("engine", &l3),
        ("summary", &l4),
    ])?;

    replay::put_layer_metrics(&mut m, &spans);
    let us = |name: &str| spans.mean(name) * 1e6;
    m.put("coordinator.insertb_us", us("engine.insert"), "us");
    m.put(
        "coordinator.query_ms",
        spans.mean("engine.query") * 1e3,
        "ms",
    );
    m.put(
        "coordinator.cached_query_us",
        us("engine.query_cached"),
        "us",
    );
    m.put("coordinator.reanchors", reanchors as f64, "count");
    m.put(
        "streaming.insert_ns",
        spans.mean("streaming.insert") * 1e9 / BURST as f64,
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
    let fed = w.stream.elements(0..replayed * BURST);
    let answer = l4.last().ok_or("no replayed query")?;
    m.put(
        "streaming.merge_parts_ms",
        merge_parts_ms(&w.sharded, &fed, answer, 20)?,
        "ms",
    );
    // The codec on what one worker holds: every other element.
    let mut part = build_summary(&w.spec);
    for e in fed.iter().step_by(WORKERS) {
        part.insert(e);
    }
    let cost = persist_cost(part.as_ref(), 20)?;
    m.put("persist.capture_us", cost.capture_us, "us");
    m.put("persist.encode_us", cost.encode_us, "us");
    m.put("persist.decode_us", cost.decode_us, "us");
    m.put("persist.restore_us", cost.restore_us, "us");
    m.put("persist.bytes_full", cost.bytes as f64, "bytes");
    let (render_ns, parse_ns, bytes) = replay::protocol_cost(&ops)?;
    m.put("protocol.render_ns", render_ns, "ns");
    m.put("protocol.parse_ns", parse_ns, "ns");
    m.put("protocol.bytes_per_elem", bytes, "bytes");
    m.put(
        "trace.overhead_pct",
        replay::overhead_pct(&w.sharded, &ops)?,
        "%",
    );
    m.put(
        "kernel.distance_ns",
        distance_ns(&fed, Metric::Manhattan),
        "ns",
    );

    tracer.spans.extend(spans.spans);
    tracer.write(
        &run.trace_dir
            .join(format!("cluster_refresh-{}.jsonl", run.seed)),
    )?;
    Ok(Outcome {
        attempted: 3 * traced.insert_s.len() as u64,
        failed: traced.failed,
        metrics: m,
    })
}
