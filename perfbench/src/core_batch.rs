//! `core_batch`: the library alone, in one thread. Census (Sex+Age, m=14,
//! d=25, Manhattan), SFDM2 with one element per group, `shards=2`. Each
//! pass builds a fresh summary, feeds a fresh seeded sample of the
//! population through `insert_batch` in chunks of 512 and calls `finalize`
//! every [`FINALIZE_EVERY`] chunks. No network, WAL or coordinator: the
//! time is `kernel`, `streaming` and `sharded`.
//!
//! A run makes many short passes rather than one long one because the
//! answer, and the summary's size, depend on arrival order: the figures of
//! a run are medians over dozens of orders.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fdm_client::protocol::StreamSpec;
use fdm_core::dataset::Dataset;
use fdm_core::metric::Metric;
use fdm_core::persist::{Snapshot, SnapshotFormat};
use fdm_core::point::Element;
use fdm_core::streaming::summary::{self, DynSummary};
use fdm_datasets::{census, CensusGrouping};
use fdm_serve::{Engine, ServeConfig};

use crate::common::{
    build_summary, check_answer, check_same, distance_ns, open_spec, population, seeded_elements,
    Answer, Clock, Metrics, Outcome, Run, Tracer,
};
use crate::heap;
use crate::layers::{merge_parts_ms, persist_cost};
use crate::replay::{self, Op};
use crate::server::{self, cpu_ms_of};
use crate::stats::{mean, median, per_window, percentile, windowed, Sample};

const MIB: f64 = 1024.0 * 1024.0;

const POPULATION: usize = 200_000;
/// Elements per pass: 50 chunks.
const PASS: usize = 25_600;
const CHUNK: usize = 512;
/// Chunks between two `finalize` calls.
const FINALIZE_EVERY: usize = 2;
const GROUPS: usize = 14;
const SHARDS: usize = 2;
/// Complete passes replayed element by element for the gate.
const CHECKED_PASSES: usize = 9;
/// Complete passes that `diversity` and `peak_mem_mb` are taken over: the
/// first ones, so those figures do not depend on how many passes the
/// machine's speed allowed.
const FIXED_PASSES: usize = 30;
/// Every this many complete passes, the pass's final summary is restored
/// from its v2 bytes for `recovery_s`, so those timings spread over the
/// run.
const RECOVERY_EVERY: usize = 4;

struct Workload {
    population: Dataset,
    seed: u64,
    spec: StreamSpec,
    quotas: Vec<usize>,
}

/// One pass's stream: a seeded sample of the population, ids `0..PASS`.
fn pass_elements(w: &Workload, pass: usize) -> Vec<Element> {
    let pass_seed = w.seed.wrapping_mul(1_000_003).wrapping_add(pass as u64);
    seeded_elements(&w.population, pass_seed, PASS)
}

/// Timings of one closed-loop phase.
#[derive(Default)]
struct Phase {
    /// Seconds of each `insert_batch`, stamped on the loop's clock.
    insert_s: Vec<Sample>,
    /// Seconds of each `finalize`, stamped likewise.
    finalize_s: Vec<Sample>,
    /// Stolen CPU share of each complete window of the loop.
    steal: Vec<f64>,
    elements: usize,
    /// Final answer of each complete pass.
    finals: Vec<Answer>,
    /// Final summaries of the first [`CHECKED_PASSES`] complete passes.
    kept: Vec<Box<dyn DynSummary>>,
    /// Restore timings: decode, `summary::restore`, first `finalize`.
    recovery_s: Vec<f64>,
    /// `summary::build` time of every pass.
    build_s: Vec<f64>,
    /// Peak heap bytes of each complete pass's summary, from its build to
    /// its last `finalize`.
    heap_bytes: Vec<f64>,
}

/// Samples reserved up front, so that growing the sample vectors does not
/// add to a pass's heap peak.
const RESERVED_SAMPLES: usize = 1 << 16;

impl Workload {
    fn new(seed: u64) -> Result<Workload, String> {
        let population = population(|n, s| census(CensusGrouping::SexAge, n, s), POPULATION)?;
        let quotas = vec![1; GROUPS];
        let spec = open_spec(
            &population,
            "sfdm2",
            quotas.clone(),
            Metric::Manhattan,
            SHARDS,
        );
        Ok(Workload {
            population,
            seed,
            spec,
            quotas,
        })
    }

    /// Passes until `budget` has elapsed. Every `finalize` answer is gated:
    /// fair, with its diversity recomputed.
    fn closed_loop(
        &self,
        budget: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, String> {
        let mut phase = Phase {
            insert_s: Vec::with_capacity(RESERVED_SAMPLES),
            finalize_s: Vec::with_capacity(RESERVED_SAMPLES),
            ..Phase::default()
        };
        let budget = budget.as_secs_f64();
        let mut clock = Clock::start();
        let chunks = PASS.div_ceil(CHUNK);
        let mut request = 0u64;
        let mut pass = 0;
        while clock.now() < budget {
            let elements = pass_elements(self, pass);
            pass += 1;
            let heap_base = heap::reset_peak();
            let t = Instant::now();
            let mut s = build_summary(&self.spec);
            phase.build_s.push(t.elapsed().as_secs_f64());
            let mut last = None;
            for (ci, chunk) in elements.chunks(CHUNK).enumerate() {
                request += 1;
                let t = Instant::now();
                match tracer.as_deref_mut() {
                    Some(tr) => tr.span("streaming.insert_batch", request, None, || {
                        s.insert_batch(chunk)
                    }),
                    None => s.insert_batch(chunk),
                }
                phase
                    .insert_s
                    .push((clock.now(), t.elapsed().as_secs_f64()));
                phase.elements += chunk.len();
                if (ci + 1) % FINALIZE_EVERY == 0 || ci + 1 == chunks {
                    request += 1;
                    let t = Instant::now();
                    let solution = match tracer.as_deref_mut() {
                        Some(tr) => tr.span("streaming.finalize", request, None, || s.finalize()),
                        None => s.finalize(),
                    }
                    .map_err(|e| format!("finalize: {e}"))?;
                    phase
                        .finalize_s
                        .push((clock.now(), t.elapsed().as_secs_f64()));
                    let answer = Answer::from(&solution);
                    check_answer(&answer, &self.quotas, Metric::Manhattan, |id| {
                        elements.get(id)
                    })?;
                    last = Some(answer);
                }
                clock.tick();
                if clock.now() >= budget {
                    break;
                }
            }
            if s.processed() == PASS {
                phase
                    .heap_bytes
                    .push(heap::peak().saturating_sub(heap_base) as f64);
                let last = last.expect("a complete pass ends on a finalize");
                if phase.finals.len() % RECOVERY_EVERY == 0 {
                    phase.recovery_s.push(recovery_s(s.as_ref(), &last)?);
                }
                phase.finals.push(last);
                if phase.kept.len() < CHECKED_PASSES {
                    phase.kept.push(s);
                }
            }
        }
        if phase.kept.len() < CHECKED_PASSES {
            return Err(format!("only {} complete passes", phase.kept.len()));
        }
        phase.steal = clock.steal();
        eprintln!("stolen CPU per window {:?}", phase.steal);
        Ok(phase)
    }

    /// The gate's independent reference: for each kept pass, one
    /// element-at-a-time (`insert`, not `insert_batch`) run of the same
    /// stream must end on the batched answer.
    fn check_passes(&self, phase: &Phase) -> Result<(), String> {
        for pass in 0..phase.kept.len() {
            let mut s = build_summary(&self.spec);
            for e in &pass_elements(self, pass) {
                s.insert(e);
            }
            let got = Answer::from(&s.finalize().map_err(|e| e.to_string())?);
            check_same(
                &format!("pass {pass} element by element"),
                &got,
                &phase.finals[pass],
            )?;
        }
        Ok(())
    }
}

/// Time from a persisted summary to its first correct answer: decode the
/// v2 bytes of `live`, `summary::restore`, `finalize`; the answer must be
/// `want`, the live summary's.
fn recovery_s(live: &dyn DynSummary, want: &Answer) -> Result<f64, String> {
    let bytes = live.snapshot().to_bytes(SnapshotFormat::Binary);
    let t = Instant::now();
    let snapshot = Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let restored = summary::restore(&snapshot).map_err(|e| e.to_string())?;
    let got = Answer::from(&restored.finalize().map_err(|e| e.to_string())?);
    let elapsed = t.elapsed().as_secs_f64();
    check_same("restored summary", &got, want)?;
    Ok(elapsed)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let w = Workload::new(run.seed)?;
    let budget = Duration::from_secs_f64(run.seconds);
    let mut m = Metrics::default();
    if !run.trace {
        let phase = w.closed_loop(budget, None)?;
        w.check_passes(&phase)?;
        if phase.finals.len() < FIXED_PASSES {
            return Err(format!("only {} complete passes", phase.finals.len()));
        }
        let diversities: Vec<f64> = phase.finals[..FIXED_PASSES]
            .iter()
            .map(|a| a.diversity)
            .collect();
        let steal = &phase.steal;
        m.put("setup_s", median(&phase.build_s).expect("passes"), "s");
        // Elements over insert time, per window: a mean, so it does not
        // follow from the p50 below.
        let eps = per_window(&phase.insert_s, steal, |w| {
            Some((CHUNK * w.len()) as f64 / w.iter().map(|&(_, v)| v).sum::<f64>())
        })?;
        m.put("ingest_eps", eps, "el/s");
        m.put(
            "insert_p50_us",
            windowed(&phase.insert_s, steal, 50.0)? * 1e6,
            "us",
        );
        m.put(
            "query_p50_ms",
            windowed(&phase.finalize_s, steal, 50.0)? * 1e3,
            "ms",
        );

        m.put(
            "peak_mem_mb",
            mean(&phase.heap_bytes[..FIXED_PASSES]) / MIB,
            "MiB",
        );
        m.put("diversity", median(&diversities).expect("passes"), "dist");
        return Ok(Outcome {
            attempted: (phase.insert_s.len() + phase.finalize_s.len()) as u64,
            failed: 0,
            metrics: m,
        });
    }

    let mut tracer = Tracer::new();
    let cpu_before = cpu_ms_of("self")?;
    let traced = w.closed_loop(budget, Some(&mut tracer))?;
    let cpu_ms = cpu_ms_of("self")? - cpu_before;
    w.check_passes(&traced)?;
    let (insert_total, _) = tracer.total("streaming.insert_batch");
    let tail = |samples: &[Sample]| {
        let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        percentile(&values, 99.0)
    };
    m.put("tail.insert_p99_us", tail(&traced.insert_s)? * 1e6, "us");
    m.put("tail.query_p99_ms", tail(&traced.finalize_s)? * 1e3, "ms");
    m.put(
        "kernel.distance_ns",
        distance_ns(&pass_elements(&w, 0), Metric::Manhattan),
        "ns",
    );
    m.put(
        "streaming.insert_ns",
        insert_total * 1e9 / traced.elements as f64,
        "ns",
    );
    let full = traced.kept.first().ok_or("no complete pass ran")?;
    m.put("streaming.stored", full.stored_elements() as f64, "count");
    m.put(
        "recovery_s",
        median(&traced.recovery_s).expect("passes"),
        "s",
    );
    m.put(
        "streaming.finalize_ms",
        tracer.mean("streaming.finalize") * 1e3,
        "ms",
    );
    m.put(
        "streaming.merge_parts_ms",
        merge_parts_ms(&w.spec, &pass_elements(&w, 0), &traced.finals[0], 20)?,
        "ms",
    );
    let cost = persist_cost(full.as_ref(), 20)?;
    m.put("persist.capture_us", cost.capture_us, "us");
    m.put("persist.encode_us", cost.encode_us, "us");
    m.put("persist.decode_us", cost.decode_us, "us");
    m.put("persist.restore_us", cost.restore_us, "us");
    m.put("persist.bytes_full", cost.bytes as f64, "bytes");

    // What serving this workload's requests costs per layer: pass 0 as
    // `INSERTB` chunks of 512 with a `QUERY` every FINALIZE_EVERY chunks,
    // replayed through a single-node server's layers.
    let ops: Vec<Op> = pass_elements(&w, 0)
        .chunks(CHUNK)
        .enumerate()
        .flat_map(|(ci, chunk)| {
            let query = (ci + 1) % FINALIZE_EVERY == 0;
            std::iter::once(Op::Batch(chunk.to_vec()))
                .chain(query.then_some(Op::Query { cached: false }))
        })
        .collect();
    let mut spans = Tracer::new();
    let (server, _) = server::start(&run.server_bin, &[], &run.work_dir.join("replay.log"))?;
    let l1 = replay::client(&mut spans, &server.addr, "replay", &w.spec, &ops)?;
    drop(server);
    let engine = || Engine::new(ServeConfig::default()).map_err(|e| e.to_string());
    let l2 = replay::session(&mut spans, Arc::new(engine()?), "replay", &w.spec, &ops)?;
    let l3 = replay::engine(&mut spans, &engine()?, "replay", &w.spec, &ops)?;
    let (l4, _) = replay::summary(&mut spans, &w.spec, &ops)?;
    replay::check_layers(&[
        ("client", &l1),
        ("session", &l2),
        ("engine", &l3),
        ("summary", &l4),
    ])?;
    check_same(
        "replayed pass 0",
        l4.last().ok_or("no replayed query")?,
        &traced.finals[0],
    )?;
    replay::put_layer_metrics(&mut m, &spans);
    let (render_ns, parse_ns, bytes) = replay::protocol_cost(&ops)?;
    m.put("protocol.render_ns", render_ns, "ns");
    m.put("protocol.parse_ns", parse_ns, "ns");
    m.put("protocol.bytes_per_elem", bytes, "bytes");
    m.put(
        "trace.overhead_pct",
        replay::overhead_pct(&w.spec, &ops)?,
        "%",
    );
    tracer.spans.extend(spans.spans);

    m.put(
        "server.cpu_ms_per_kop",
        cpu_ms / (traced.elements as f64 / 1e3),
        "ms",
    );
    tracer.write(&run.trace_dir.join(format!("core_batch-{}.jsonl", run.seed)))?;
    Ok(Outcome {
        attempted: (traced.insert_s.len() + traced.finalize_s.len()) as u64,
        failed: 0,
        metrics: m,
    })
}
