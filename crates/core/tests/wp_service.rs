//! Integration tests of the Workload Prediction service boundary — the
//! trait other SEDA systems consume (§5, §6.3.2).

use std::sync::Arc;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::persist::DriverState;
use smartpick_core::training::{train_predictor, TrainOptions};
use smartpick_core::wp::{ConstraintMode, PredictionRequest, WorkloadPredictionService};
use smartpick_core::{Smartpick, SmartpickError, SmartpickProperties, WorkloadPredictor};
use smartpick_ml::forest::ForestParams;
use smartpick_workloads::tpcds;

fn predictor() -> WorkloadPredictor {
    let env = CloudEnv::new(Provider::Aws);
    let queries: Vec<_> = tpcds::TRAINING_QUERIES
        .iter()
        .map(|&q| tpcds::query(q, 100.0).unwrap())
        .collect();
    let opts = TrainOptions {
        configs_per_query: 8,
        burst_factor: 4,
        forest: ForestParams {
            n_trees: 30,
            ..ForestParams::default()
        },
        ..TrainOptions::default()
    };
    train_predictor(&env, &queries, &opts, 42).unwrap().0
}

#[test]
fn usable_as_a_trait_object() {
    let wp = predictor();
    let service: &dyn WorkloadPredictionService = &wp;
    let det = service
        .determine(&PredictionRequest::new(tpcds::query(11, 100.0).unwrap(), 1))
        .expect("determination succeeds");
    assert!(det.allocation.is_viable());
}

#[test]
fn search_honours_the_training_floor() {
    // Trained with min_total = 4: no determination may request fewer.
    let wp = predictor();
    for (qnum, seed) in [(11u32, 1u64), (49, 2), (82, 3)] {
        for constraint in [
            ConstraintMode::Hybrid,
            ConstraintMode::VmOnly,
            ConstraintMode::SlOnly,
        ] {
            let det = wp
                .determine(&PredictionRequest {
                    query: tpcds::query(qnum, 100.0).unwrap(),
                    knob: 0.0,
                    constraint,
                    seed,
                })
                .unwrap();
            assert!(
                det.allocation.total_instances() >= 4,
                "q{qnum} {constraint:?}: {}",
                det.allocation
            );
            for e in &det.et_list {
                assert!(e.allocation.total_instances() >= 4);
            }
        }
    }
}

#[test]
fn et_list_is_internally_consistent() {
    let wp = predictor();
    let det = wp
        .determine(&PredictionRequest::new(tpcds::query(74, 100.0).unwrap(), 7))
        .unwrap();
    assert_eq!(det.et_list.len(), det.evaluations);
    for e in &det.et_list {
        assert!(e.est_seconds.is_finite());
        assert!(e.est_cost.dollars() >= 0.0);
        assert!(e.allocation.is_viable());
    }
    // The chosen configuration's prediction matches one of the probes
    // (knob 0 keeps the best probe).
    let best = det
        .et_list
        .iter()
        .map(|e| e.est_seconds)
        .fold(f64::INFINITY, f64::min);
    assert!((det.predicted_seconds - best).abs() < 1e-9);
}

#[test]
fn registering_a_query_makes_it_known() {
    let mut wp = predictor();
    let alien = tpcds::query(62, 100.0).unwrap();
    assert!(wp.code_of("tpcds-q62").is_none());
    let code = wp.register_query(&alien);
    assert_eq!(wp.code_of("tpcds-q62"), Some(code));
    // Re-registration is idempotent.
    assert_eq!(wp.register_query(&alien), code);
    let det = wp.determine(&PredictionRequest::new(alien, 9)).unwrap();
    assert!(det.known_query);
}

#[test]
fn predictions_scale_with_instance_count() {
    // More instances must not predict (much) slower completion for the
    // same query — the learned surface is broadly monotone.
    let wp = predictor();
    let q = tpcds::query(74, 100.0).unwrap();
    let small = wp
        .predict_seconds(&q, &smartpick_engine::Allocation::new(2, 2))
        .unwrap();
    let large = wp
        .predict_seconds(&q, &smartpick_engine::Allocation::new(10, 10))
        .unwrap();
    assert!(
        large < small * 1.1,
        "20 instances ({large:.1}s) should not be slower than 4 ({small:.1}s)"
    );
}

#[test]
fn batch_sweep_probes_include_the_grid_optimum() {
    // The vectorized path pre-evaluates the whole grid, so the model's
    // true argmin over the candidate set must always be among the probes
    // (the first greedy probe) — a guarantee the GP surrogate never made.
    let wp = predictor();
    let q = tpcds::query(11, 100.0).unwrap();
    let det = wp
        .determine(&PredictionRequest::new(q.clone(), 31))
        .unwrap();
    // Exhaustively find the model's best candidate.
    let (max_vm, max_sl) = wp.search_bounds();
    let mut best = f64::INFINITY;
    let mut best_alloc = smartpick_engine::Allocation::new(0, 0);
    for n_vm in 0..=max_vm {
        for n_sl in 0..=max_sl {
            if n_vm + n_sl < 4 {
                continue;
            }
            let alloc = smartpick_engine::Allocation::new(n_vm, n_sl);
            let t = wp.predict_seconds(&q, &alloc).unwrap();
            if t < best {
                best = t;
                best_alloc = alloc;
            }
        }
    }
    assert!(
        det.et_list
            .iter()
            .any(|e| e.allocation.n_vm == best_alloc.n_vm && e.allocation.n_sl == best_alloc.n_sl),
        "ET_l must contain the grid optimum {best_alloc}"
    );
    // And the chosen prediction sits within the δ-noise band of it.
    assert!(det.predicted_seconds <= best + 1.0);
}

#[test]
fn vectorized_and_reference_paths_agree_on_the_model() {
    // Both paths consume the same forest: every probe in either path's
    // ET_l must equal the scalar model prediction for its allocation,
    // up to the δ observation noise (σ = 0.25, so 6σ bounds it).
    let wp = predictor();
    let q = tpcds::query(49, 100.0).unwrap();
    for det in [
        wp.determine(&PredictionRequest::new(q.clone(), 5)).unwrap(),
        wp.determine_reference(&PredictionRequest::new(q.clone(), 5))
            .unwrap(),
    ] {
        for e in &det.et_list {
            let alloc = smartpick_engine::Allocation::new(e.allocation.n_vm, e.allocation.n_sl);
            let model = wp.predict_seconds(&q, &alloc).unwrap();
            assert!(
                (e.est_seconds - model).abs() < 1.5,
                "probe {} drifted from the model: {} vs {model}",
                e.allocation,
                e.est_seconds
            );
        }
    }
}

#[test]
fn determinations_are_deterministic_given_seed() {
    let wp = predictor();
    let q = tpcds::query(82, 100.0).unwrap();
    let a = wp
        .determine(&PredictionRequest::new(q.clone(), 77))
        .unwrap();
    let b = wp.determine(&PredictionRequest::new(q, 77)).unwrap();
    assert_eq!(a.allocation, b.allocation);
    assert_eq!(a.predicted_seconds, b.predicted_seconds);
    assert_eq!(a.et_list, b.et_list);
}

#[test]
fn relay_aware_predictor_emits_relay_allocations() {
    let env = CloudEnv::new(Provider::Aws);
    let queries: Vec<_> = [82u32, 74]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).unwrap())
        .collect();
    let opts = TrainOptions {
        configs_per_query: 6,
        burst_factor: 3,
        relay: true,
        forest: ForestParams {
            n_trees: 20,
            ..ForestParams::default()
        },
        ..TrainOptions::default()
    };
    let (wp, _) = train_predictor(&env, &queries, &opts, 5).unwrap();
    assert!(wp.relay_aware());
    let det = wp
        .determine(&PredictionRequest::new(tpcds::query(74, 100.0).unwrap(), 3))
        .unwrap();
    if det.allocation.n_vm > 0 && det.allocation.n_sl > 0 {
        assert_eq!(det.allocation.relay, smartpick_engine::RelayPolicy::Relay);
    }
}

/// The four constraint modes' candidate sets, from the definition.
fn grid(max_vm: u32, max_sl: u32, min_total: u32, mode: ConstraintMode) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for n_vm in 0..=max_vm {
        for n_sl in 0..=max_sl {
            let keep = match mode {
                ConstraintMode::Hybrid => true,
                ConstraintMode::VmOnly => n_sl == 0,
                ConstraintMode::SlOnly => n_vm == 0,
                ConstraintMode::EqualSlVm => n_vm == n_sl && n_vm > 0,
            };
            if keep && n_vm + n_sl >= min_total.max(1) {
                out.push((n_vm, n_sl));
            }
        }
    }
    out
}

#[test]
fn every_mode_and_bound_sweeps_the_scalar_model_or_refuses_an_empty_grid() {
    // One trained model rebuilt under each pair of bounds through the
    // public constructor every snapshot decode calls — the one that
    // compiles the lattices — and restored into a driver.
    // (The bitwise comparison against the materialised batch walk needs
    // the crate's private search pieces and lives beside them, in
    // `wp.rs`; here the lattice sweep is held to the *scalar* model
    // through the public API alone.)
    let env = CloudEnv::new(Provider::Aws);
    let queries: Vec<_> = [82u32, 68]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).unwrap())
        .collect();
    let opts = TrainOptions {
        configs_per_query: 6,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: 20,
            ..ForestParams::default()
        },
        ..TrainOptions::default()
    };
    let (driver, _) =
        Smartpick::train_with_options(env, SmartpickProperties::default(), &queries, &opts, 9)
            .unwrap();
    let state = driver.export_state();
    let trained = &state.predictor;
    for (max_vm, max_sl, min_total) in [
        (0, 10, 1),
        (10, 0, 4),
        (1, 1, 1),
        (1, 1, 4),
        (8, 8, 4),
        (16, 16, 4),
        (32, 32, 4),
    ] {
        let rebuilt = WorkloadPredictor::assemble(
            trained.env().clone(),
            trained.forest().clone(),
            trained.known_queries().to_vec(),
            trained.similarity().clone(),
            trained.relay_aware(),
            trained.stderr(),
            max_vm,
            max_sl,
            min_total,
        )
        .unwrap();
        let restored = Smartpick::from_state(DriverState {
            predictor: Arc::new(rebuilt),
            ..state.clone()
        });
        let wp = restored.predictor();
        for mode in [
            ConstraintMode::Hybrid,
            ConstraintMode::VmOnly,
            ConstraintMode::SlOnly,
            ConstraintMode::EqualSlVm,
        ] {
            let context = format!("{max_vm}x{max_sl} floor {min_total} {mode:?}");
            let candidates = grid(max_vm, max_sl, min_total, mode);
            let requests: Vec<PredictionRequest> = [(82u32, 100.0, 5u64), (68, 300.0, 6)]
                .iter()
                .map(|&(qnum, input_gb, seed)| PredictionRequest {
                    query: tpcds::query(qnum, input_gb).unwrap(),
                    knob: 0.0,
                    constraint: mode,
                    seed,
                })
                .collect();
            if candidates.is_empty() {
                for request in &requests {
                    let result = wp.determine(request).map(|_| ());
                    assert!(
                        matches!(result, Err(SmartpickError::EmptySearchSpace(m)) if m == mode),
                        "{context}: {result:?}"
                    );
                }
                continue;
            }
            for request in &requests {
                let det = wp.determine(request).unwrap();
                assert_eq!(det.evaluations, det.et_list.len().min(candidates.len()));
                let mut best = f64::INFINITY;
                for &(n_vm, n_sl) in &candidates {
                    let alloc = smartpick_engine::Allocation::new(n_vm, n_sl);
                    best = best.min(wp.predict_seconds(&request.query, &alloc).unwrap());
                }
                let mut probed_best = f64::INFINITY;
                for e in &det.et_list {
                    let at = (e.allocation.n_vm, e.allocation.n_sl);
                    assert!(candidates.contains(&at), "{context}: probed {at:?}");
                    let alloc = smartpick_engine::Allocation::new(at.0, at.1);
                    let model = wp.predict_seconds(&request.query, &alloc).unwrap();
                    // δ has σ = 0.25: 6σ bounds it.
                    assert!(
                        (e.est_seconds - model).abs() < 1.5,
                        "{context}: {at:?} swept {} vs scalar {model}",
                        e.est_seconds
                    );
                    probed_best = probed_best.min(model);
                }
                // The sweep knows the whole grid: its optimum is probed.
                assert_eq!(probed_best.to_bits(), best.to_bits(), "{context}");
            }
        }
    }
}
