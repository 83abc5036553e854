//! In-process measurements of the lowest layers on a workload's own
//! state: the persistence codec (`fdm-core::persist` + `summary::restore`)
//! and the shard merge (`summary::merge_summary_parts`).

use std::time::Instant;

use fdm_client::protocol::StreamSpec;
use fdm_core::persist::{Snapshot, SnapshotFormat};
use fdm_core::point::Element;
use fdm_core::streaming::summary::{self, DynSummary};

use crate::common::{build_summary, check_same, Answer};
use crate::stats::mean;

/// Mean cost of each step that turns a live summary into bytes and back.
pub struct PersistCost {
    pub capture_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub restore_us: f64,
    pub bytes: usize,
}

/// Captures, encodes (v2 binary), decodes and restores `live` `reps`
/// times; every restored copy must answer exactly as `live` does.
pub fn persist_cost(live: &dyn DynSummary, reps: usize) -> Result<PersistCost, String> {
    let want = Answer::from(&live.finalize().map_err(|e| e.to_string())?);
    let (mut capture, mut encode, mut decode, mut restore) = (vec![], vec![], vec![], vec![]);
    let mut bytes = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let snapshot = live.snapshot();
        capture.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let encoded = snapshot.to_bytes(SnapshotFormat::Binary);
        encode.push(t.elapsed().as_secs_f64());
        bytes = encoded.len();
        let t = Instant::now();
        let decoded = Snapshot::from_bytes(&encoded).map_err(|e| e.to_string())?;
        decode.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let restored = summary::restore(&decoded).map_err(|e| e.to_string())?;
        restore.push(t.elapsed().as_secs_f64());
        let got = Answer::from(&restored.finalize().map_err(|e| e.to_string())?);
        check_same("restored summary", &got, &want)?;
    }
    Ok(PersistCost {
        capture_us: mean(&capture) * 1e6,
        encode_us: mean(&encode) * 1e6,
        decode_us: mean(&decode) * 1e6,
        restore_us: mean(&restore) * 1e6,
        bytes,
    })
}

/// Feeds `elements` round-robin into `parts` unsharded summaries (what
/// the coordinator's workers hold) and times `merge_summary_parts` over
/// them `reps` times. The merged answer must equal `sharded_answer`, the
/// answer of one `shards = parts` summary fed the same order.
pub fn merge_parts_ms(
    spec: &StreamSpec,
    elements: &[Element],
    sharded_answer: &Answer,
    reps: usize,
) -> Result<f64, String> {
    let parts_n = spec.shards.max(1);
    let unsharded = StreamSpec {
        shards: 1,
        ..spec.clone()
    };
    let mut parts: Vec<Box<dyn DynSummary>> =
        (0..parts_n).map(|_| build_summary(&unsharded)).collect();
    for (i, e) in elements.iter().enumerate() {
        parts[i % parts_n].insert(e);
    }
    let refs: Vec<&dyn DynSummary> = parts.iter().map(|p| p.as_ref()).collect();
    let summary_spec = spec.to_summary_spec().map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let solution = summary::merge_summary_parts(&summary_spec, &refs, parts_n)
            .map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        check_same(
            "merge_summary_parts",
            &Answer::from(&solution),
            sharded_answer,
        )?;
    }
    Ok(mean(&times) * 1e3)
}
