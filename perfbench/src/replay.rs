//! The traced run's layer replays. One generated request sequence is
//! replayed, on fresh state each time, through successively lower public
//! entry points:
//!
//! 1. TCP, through `fdm_client::Client`, against a spawned `fdm-serve`;
//! 2. `Session::execute`, in-process;
//! 3. `Engine::insert` / `insert_batch` / `query`, in-process;
//! 4. `DynSummary::insert` / `finalize`.
//!
//! Each request gets one span per layer, all with the request's id; a
//! layer's self time is its span total minus that of the layer below.
//! Every layer must give the same answers, which extends the gate.

use std::sync::Arc;
use std::time::Instant;

use fdm_client::client::Client;
use fdm_client::protocol::{parse_line, Payload, Request, StreamSpec};
use fdm_core::point::Element;
use fdm_core::streaming::summary::DynSummary;
use fdm_serve::{Engine, Session};

use crate::common::{build_summary, check_same, Answer, Metrics, Tracer};
use crate::stats::{self, least};

/// One request of a replayed sequence.
pub enum Op {
    Insert(Element),
    Batch(Vec<Element>),
    /// An untimed-in-the-report `INSERTB` that fills the stream before the
    /// measured requests; its spans carry their own names.
    Load(Vec<Element>),
    /// A `QUERY`; `cached` marks one expected to hit the coordinator's
    /// merged-answer cache, so it is timed under its own span names.
    Query {
        cached: bool,
    },
}

impl Op {
    fn request(&self) -> Request {
        match self {
            Op::Insert(e) => Request::Insert(e.clone()),
            Op::Batch(b) | Op::Load(b) => Request::InsertBatch(b.clone()),
            Op::Query { .. } => Request::Query { k: None },
        }
    }

    fn span(&self, layer: &'static [&'static str; 4]) -> &'static str {
        match self {
            Op::Insert(_) | Op::Batch(_) => layer[0],
            Op::Query { cached: false } => layer[1],
            Op::Query { cached: true } => layer[2],
            Op::Load(_) => layer[3],
        }
    }
}

const CLIENT: [&str; 4] = [
    "client.insert",
    "client.query",
    "client.query_cached",
    "client.load",
];
const SESSION: [&str; 4] = [
    "session.insert",
    "session.query",
    "session.query_cached",
    "session.load",
];
const ENGINE: [&str; 4] = [
    "engine.insert",
    "engine.query",
    "engine.query_cached",
    "engine.load",
];
const SUMMARY: [&str; 4] = [
    "streaming.insert",
    "streaming.finalize",
    "streaming.finalize_cached",
    "streaming.load",
];

fn answer_of(payload: Payload) -> Result<Answer, String> {
    match payload {
        Payload::Query(reply) => Ok(reply.into()),
        other => Err(format!("QUERY answered {other:?}")),
    }
}

/// Layer 1: the sequence over TCP through `fdm_client::Client`, closed
/// loop, one request at a time.
pub fn client(
    tr: &mut Tracer,
    addr: &str,
    name: &str,
    spec: &StreamSpec,
    ops: &[Op],
) -> Result<Vec<Answer>, String> {
    let mut c = Client::connect_tcp(addr).map_err(|e| e.to_string())?;
    c.open(name, spec).map_err(|e| e.to_string())?;
    let mut answers = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let name = op.span(&CLIENT);
        match op {
            Op::Insert(e) => {
                tr.span(name, i as u64, None, || c.insert(e))
                    .map_err(|e| e.to_string())?;
            }
            Op::Batch(b) | Op::Load(b) => {
                tr.span(name, i as u64, None, || c.insert_batch(b))
                    .map_err(|e| e.to_string())?;
            }
            Op::Query { .. } => {
                let reply = tr
                    .span(name, i as u64, None, || c.query(None))
                    .map_err(|e| e.to_string())?;
                answers.push(reply.into());
            }
        }
    }
    Ok(answers)
}

/// Layer 2: `Session::execute` on an in-process engine.
pub fn session(
    tr: &mut Tracer,
    engine: Arc<Engine>,
    name: &str,
    spec: &StreamSpec,
    ops: &[Op],
) -> Result<Vec<Answer>, String> {
    let mut session = Session::new(engine);
    let open = Request::Open {
        name: name.to_string(),
        spec: spec.clone(),
    };
    let line = open.render();
    session.execute(open, &line).map_err(|e| e.message)?;
    let mut answers = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let request = op.request();
        let line = request.render();
        let payload = tr
            .span(op.span(&SESSION), i as u64, Some(i as u64), || {
                session.execute(request, &line)
            })
            .map_err(|e| e.message)?;
        if let Op::Query { .. } = op {
            answers.push(answer_of(payload)?);
        }
    }
    Ok(answers)
}

/// Layer 3: the engine's own entry points, in-process.
pub fn engine(
    tr: &mut Tracer,
    engine: &Engine,
    name: &str,
    spec: &StreamSpec,
    ops: &[Op],
) -> Result<Vec<Answer>, String> {
    engine.open(name, spec).map_err(|e| e.message)?;
    let mut answers = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let span = op.span(&ENGINE);
        let id = Some(i as u64);
        match op {
            Op::Insert(e) => {
                let line = op.request().render();
                tr.span(span, i as u64, id, || engine.insert(name, e, &line))
                    .map_err(|e| e.message)?;
            }
            Op::Batch(b) | Op::Load(b) => {
                tr.span(span, i as u64, id, || engine.insert_batch(name, b))
                    .map_err(|e| e.message)?;
            }
            Op::Query { .. } => {
                let payload = tr
                    .span(span, i as u64, id, || engine.query(name, None))
                    .map_err(|e| e.message)?;
                answers.push(answer_of(payload)?);
            }
        }
    }
    Ok(answers)
}

/// Layer 4: the summary itself. Returns its answers and the summary.
pub fn summary(
    tr: &mut Tracer,
    spec: &StreamSpec,
    ops: &[Op],
) -> Result<(Vec<Answer>, Box<dyn DynSummary>), String> {
    let mut s = build_summary(spec);
    let mut answers = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let span = op.span(&SUMMARY);
        let id = Some(i as u64);
        match op {
            Op::Insert(e) => tr.span(span, i as u64, id, || s.insert(e)),
            Op::Batch(b) | Op::Load(b) => tr.span(span, i as u64, id, || s.insert_batch(b)),
            Op::Query { .. } => {
                let solution = tr
                    .span(span, i as u64, id, || s.finalize())
                    .map_err(|e| e.to_string())?;
                answers.push(Answer::from(&solution));
            }
        }
    }
    Ok((answers, s))
}

/// Fails unless every layer gave the same answers.
pub fn check_layers(layers: &[(&str, &[Answer])]) -> Result<(), String> {
    let (_, want) = layers[0];
    for (layer, got) in &layers[1..] {
        if got.len() != want.len() {
            return Err(format!(
                "{layer} answered {} queries, expected {}",
                got.len(),
                want.len()
            ));
        }
        for (g, w) in got.iter().zip(want) {
            check_same(&format!("{layer} replay"), g, w)?;
        }
    }
    Ok(())
}

/// Protocol cost of the sequence's insert requests: render and parse
/// nanoseconds per element, and wire bytes per element.
pub fn protocol_cost(ops: &[Op]) -> Result<(f64, f64, f64), String> {
    let requests: Vec<(Request, usize)> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Insert(_) => Some((op.request(), 1)),
            Op::Batch(b) => Some((op.request(), b.len())),
            Op::Query { .. } | Op::Load(_) => None,
        })
        .collect();
    let mut buf = String::new();
    let mut lines = Vec::with_capacity(requests.len());
    let t = Instant::now();
    for (r, _) in &requests {
        buf.clear();
        r.render_into(&mut buf);
        lines.push(buf.len());
    }
    let render_ns = t.elapsed().as_nanos() as f64;
    let rendered: Vec<String> = requests.iter().map(|(r, _)| r.render()).collect();
    let t = Instant::now();
    for line in &rendered {
        let parsed = parse_line(line)?.ok_or("blank line")?;
        std::hint::black_box(parsed);
    }
    let parse_ns = t.elapsed().as_nanos() as f64;
    let elements = requests.iter().map(|(_, n)| n).sum::<usize>() as f64;
    let bytes = lines.iter().map(|l| l + 1).sum::<usize>() as f64;
    Ok((render_ns / elements, parse_ns / elements, bytes / elements))
}

/// The per-request layer metrics of a four-layer replay: round trips at the
/// client, and each layer's self time (its mean insert span minus the one
/// below).
pub fn put_layer_metrics(m: &mut Metrics, spans: &Tracer) {
    let us = |name: &str| spans.mean(name) * 1e6;
    m.put("client.rtt_insert_us", us(CLIENT[0]), "us");
    m.put("client.rtt_query_us", us(CLIENT[1]), "us");
    m.put("net.self_us", us(CLIENT[0]) - us(SESSION[0]), "us");
    m.put("session.self_us", us(SESSION[0]) - us(ENGINE[0]), "us");
    m.put("engine.insert_us", us(ENGINE[0]), "us");
    m.put("engine.self_us", us(ENGINE[0]) - us(SUMMARY[0]), "us");
}

/// Replays of the summary layer in [`overhead_pct`], alternating traced
/// and untraced.
const OVERHEAD_REPS: usize = 5;

/// What recording spans costs, in percent: the summary layer (the finest
/// spans, so the largest relative cost) replayed on the same requests with
/// spans recorded and with recording off, alternately; the fastest replay
/// of each kind is compared.
pub fn overhead_pct(spec: &StreamSpec, ops: &[Op]) -> Result<f64, String> {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_REPS {
        for (on, times) in [(true, &mut traced), (false, &mut untraced)] {
            let mut tr = if on { Tracer::new() } else { Tracer::off() };
            let t = Instant::now();
            summary(&mut tr, spec, ops)?;
            times.push(t.elapsed().as_secs_f64());
        }
    }
    Ok(stats::overhead_pct(
        least(&traced).expect("reps"),
        least(&untraced).expect("reps"),
    ))
}
