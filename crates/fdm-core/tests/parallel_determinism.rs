//! Serial-vs-parallel determinism: with the `parallel` cargo feature
//! sharded ingestion and the streaming algorithms' per-guess
//! post-processing fan out over threads, and the results must be *identical* to a forced-sequential
//! run — same retained elements, same solution ids, same diversity bits.
//!
//! Without the feature both sides are sequential and the tests pass
//! trivially; CI runs this suite with `--features parallel` to exercise the
//! real comparison.

use fdm_core::dataset::Dataset;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::metric::Metric;
use fdm_core::point::Element;
use fdm_core::streaming::sfdm1::{Sfdm1, Sfdm1Config};
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_core::streaming::sharded::{ShardAlgorithm, ShardedStream};
use fdm_core::streaming::unconstrained::{StreamingDiversityMaximization, StreamingDmConfig};
use rand::prelude::*;

fn random_dataset(n: usize, m: usize, dim: usize, metric: Metric, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.random::<f64>() * 10.0 + 0.1).collect())
        .collect();
    let mut groups: Vec<usize> = (0..n).map(|_| rng.random_range(0..m)).collect();
    for g in 0..m {
        groups[g] = g;
    }
    Dataset::from_rows(rows, groups, metric).unwrap()
}

fn metrics() -> Vec<Metric> {
    vec![Metric::Euclidean, Metric::Manhattan, Metric::Angular]
}

#[test]
fn sfdm1_parallel_equals_sequential() {
    for (trial, metric) in metrics().into_iter().enumerate() {
        let d = random_dataset(400, 2, 8, metric, 100 + trial as u64);
        let bounds = d.sampled_distance_bounds(100, 2.0).unwrap();
        let cfg = Sfdm1Config {
            constraint: FairnessConstraint::new(vec![4, 3]).unwrap(),
            epsilon: 0.1,
            bounds,
            metric,
        };
        let elements: Vec<Element> = d.iter().collect();

        let mut parallel = Sfdm1::new(cfg.clone()).unwrap();
        for chunk in elements.chunks(64) {
            parallel.insert_batch(chunk);
        }
        let mut sequential = Sfdm1::new(cfg).unwrap();
        sequential.set_sequential(true);
        for e in &elements {
            sequential.insert(e);
        }

        assert_eq!(parallel.stored_elements(), sequential.stored_elements());
        let (p, s) = (parallel.finalize(), sequential.finalize());
        match (p, s) {
            (Ok(p), Ok(s)) => {
                assert_eq!(p.ids(), s.ids(), "{metric:?}: solution ids differ");
                assert_eq!(
                    p.diversity.to_bits(),
                    s.diversity.to_bits(),
                    "{metric:?}: diversity bits differ"
                );
            }
            (p, s) => panic!("{metric:?}: outcome mismatch {p:?} vs {s:?}"),
        }
    }
}

#[test]
fn sfdm2_parallel_equals_sequential() {
    for (trial, metric) in metrics().into_iter().enumerate() {
        let d = random_dataset(500, 3, 6, metric, 200 + trial as u64);
        let bounds = d.sampled_distance_bounds(100, 2.0).unwrap();
        let cfg = Sfdm2Config {
            constraint: FairnessConstraint::new(vec![2, 3, 2]).unwrap(),
            epsilon: 0.1,
            bounds,
            metric,
        };
        let elements: Vec<Element> = d.iter().collect();

        let mut parallel = Sfdm2::new(cfg.clone()).unwrap();
        for chunk in elements.chunks(96) {
            parallel.insert_batch(chunk);
        }
        let mut sequential = Sfdm2::new(cfg).unwrap();
        sequential.set_sequential(true);
        for e in &elements {
            sequential.insert(e);
        }

        assert_eq!(parallel.stored_elements(), sequential.stored_elements());
        let (p, s) = (parallel.finalize(), sequential.finalize());
        match (p, s) {
            (Ok(p), Ok(s)) => {
                assert_eq!(p.ids(), s.ids(), "{metric:?}: solution ids differ");
                assert_eq!(
                    p.diversity.to_bits(),
                    s.diversity.to_bits(),
                    "{metric:?}: diversity bits differ"
                );
            }
            (p, s) => panic!("{metric:?}: outcome mismatch {p:?} vs {s:?}"),
        }
    }
}

#[test]
fn algorithm1_parallel_equals_sequential() {
    let d = random_dataset(600, 1, 16, Metric::Euclidean, 300);
    let bounds = d.sampled_distance_bounds(100, 2.0).unwrap();
    let cfg = StreamingDmConfig {
        k: 10,
        epsilon: 0.1,
        bounds,
        metric: Metric::Euclidean,
    };
    let elements: Vec<Element> = d.iter().collect();

    let mut parallel = StreamingDiversityMaximization::new(cfg.clone()).unwrap();
    for chunk in elements.chunks(128) {
        parallel.insert_batch(chunk);
    }
    let mut sequential = StreamingDiversityMaximization::new(cfg).unwrap();
    sequential.set_sequential(true);
    for e in &elements {
        sequential.insert(e);
    }

    assert_eq!(parallel.stored_elements(), sequential.stored_elements());
    let p = parallel.finalize().unwrap();
    let s = sequential.finalize().unwrap();
    assert_eq!(p.ids(), s.ids());
    assert_eq!(p.diversity.to_bits(), s.diversity.to_bits());
}

#[test]
fn sharded_parallel_equals_sequential() {
    // Shard fan-out runs sub-batches concurrently on the pool; a forced-
    // sequential sharded run must agree id-for-id, bit-for-bit.
    for (trial, metric) in metrics().into_iter().enumerate() {
        let d = random_dataset(600, 3, 6, metric, 400 + trial as u64);
        let bounds = d.sampled_distance_bounds(100, 2.0).unwrap();
        let cfg = Sfdm2Config {
            constraint: FairnessConstraint::new(vec![2, 2, 2]).unwrap(),
            epsilon: 0.1,
            bounds,
            metric,
        };
        let elements: Vec<Element> = d.iter().collect();

        let mut parallel: ShardedStream<Sfdm2> = ShardedStream::new(cfg.clone(), 4).unwrap();
        for chunk in elements.chunks(128) {
            parallel.insert_batch(chunk);
        }
        let mut sequential: ShardedStream<Sfdm2> = ShardedStream::new(cfg, 4).unwrap();
        sequential.set_sequential(true);
        for e in &elements {
            sequential.insert(e);
        }

        assert_eq!(parallel.stored_elements(), sequential.stored_elements());
        match (parallel.finalize(), sequential.finalize()) {
            (Ok(p), Ok(s)) => {
                assert_eq!(p.ids(), s.ids(), "{metric:?}: sharded ids differ");
                assert_eq!(
                    p.diversity.to_bits(),
                    s.diversity.to_bits(),
                    "{metric:?}: sharded diversity bits differ"
                );
            }
            (p, s) => panic!("{metric:?}: outcome mismatch {p:?} vs {s:?}"),
        }
    }
}

#[test]
fn parallel_finalize_tie_break_matches_sequential() {
    // A stream engineered so several guesses yield full candidates with
    // similar diversities: the reduction must pick the same guess either
    // way (first maximum under strict `>`).
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|i| vec![(i % 40) as f64, (i / 40) as f64])
        .collect();
    let groups: Vec<usize> = (0..200).map(|i| i % 2).collect();
    let d = Dataset::from_rows(rows, groups, Metric::Euclidean).unwrap();
    let bounds = d.exact_distance_bounds().unwrap();
    let cfg = Sfdm2Config {
        constraint: FairnessConstraint::new(vec![3, 3]).unwrap(),
        epsilon: 0.2,
        bounds,
        metric: Metric::Euclidean,
    };
    let mut a = Sfdm2::new(cfg.clone()).unwrap();
    let mut b = Sfdm2::new(cfg).unwrap();
    b.set_sequential(true);
    for e in d.iter() {
        a.insert(&e);
        b.insert(&e);
    }
    let pa = a.finalize().unwrap();
    let pb = b.finalize().unwrap();
    assert_eq!(pa.ids(), pb.ids());
}

/// Arena order of every retained element, by external id.
fn retained_ids(elements: Vec<Element>) -> Vec<usize> {
    elements.iter().map(|e| e.id).collect()
}

/// Feeds `elements` to a fresh `S` in batches of `batch` and to another
/// one element by element; both must retain the same elements in the same
/// arena order.
fn assert_batch_retains_like_insert<S: ShardAlgorithm>(
    config: &S::Config,
    elements: &[Element],
    batch: usize,
    what: &str,
) {
    let mut batched = S::build(config).unwrap();
    for chunk in elements.chunks(batch) {
        batched.insert_batch(chunk);
    }
    let mut single = S::build(config).unwrap();
    for e in elements {
        single.insert(e);
    }
    assert_eq!(batched.processed(), single.processed(), "{what}: processed");
    assert_eq!(
        retained_ids(batched.retained_elements()),
        retained_ids(single.retained_elements()),
        "{what}: insert_batch retained different elements than insert"
    );
}

#[test]
fn insert_batch_retains_exactly_what_insert_retains() {
    // Under `parallel` the batch entry point is the only place a per-batch
    // code path could diverge from the element path; pin the retained
    // arenas id-for-id for every ladder algorithm, unsharded and sharded.
    for (trial, metric) in metrics().into_iter().enumerate() {
        let seed = 500 + trial as u64;
        let d2 = random_dataset(400, 2, 8, metric, seed);
        let sfdm1 = Sfdm1Config {
            constraint: FairnessConstraint::new(vec![4, 3]).unwrap(),
            epsilon: 0.1,
            bounds: d2.sampled_distance_bounds(100, 2.0).unwrap(),
            metric,
        };
        let elements2: Vec<Element> = d2.iter().collect();
        assert_batch_retains_like_insert::<Sfdm1>(&sfdm1, &elements2, 64, "sfdm1");

        let d3 = random_dataset(500, 3, 6, metric, seed + 50);
        let sfdm2 = Sfdm2Config {
            constraint: FairnessConstraint::new(vec![2, 3, 2]).unwrap(),
            epsilon: 0.1,
            bounds: d3.sampled_distance_bounds(100, 2.0).unwrap(),
            metric,
        };
        let elements3: Vec<Element> = d3.iter().collect();
        assert_batch_retains_like_insert::<Sfdm2>(&sfdm2, &elements3, 96, "sfdm2");

        let unconstrained = StreamingDmConfig {
            k: 10,
            epsilon: 0.1,
            bounds: d3.sampled_distance_bounds(100, 2.0).unwrap(),
            metric,
        };
        assert_batch_retains_like_insert::<StreamingDiversityMaximization>(
            &unconstrained,
            &elements3,
            128,
            "unconstrained",
        );

        let mut batched: ShardedStream<Sfdm2> = ShardedStream::new(sfdm2.clone(), 3).unwrap();
        for chunk in elements3.chunks(128) {
            batched.insert_batch(chunk);
        }
        let mut single: ShardedStream<Sfdm2> = ShardedStream::new(sfdm2, 3).unwrap();
        for e in &elements3 {
            single.insert(e);
        }
        assert_eq!(
            retained_ids(batched.retained_elements()),
            retained_ids(single.retained_elements()),
            "{metric:?}: sharded insert_batch retained different elements than insert"
        );
    }
}
