//! Bayesian optimisation over a discrete candidate set.
//!
//! Smartpick couples its Random Forest with a Bayesian Optimizer so the
//! `{nVM, nSL}` configuration space need not be swept exhaustively (§3.1).
//! The surrogate is a Gaussian process; the acquisition is **Probability of
//! Improvement** (the paper picks PI for being similar to EI but simpler
//! and widely used); and the search stops when the best (estimated) query
//! completion time has not improved by 1% for 10 consecutive probes.
//!
//! The optimizer also records every probe `(candidate index, objective)` —
//! Smartpick's estimated-times list `ET_l`, which the cost–performance knob
//! later traverses (§3.3). Results name candidates by index only: the
//! caller owns the candidate set and reads coordinates out of it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::gp::{GaussianProcess, GpParams};
use crate::metrics::{norm_cdf, norm_pdf};

/// Acquisition functions for selecting the next probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Probability of improvement (the paper's choice, §3.1).
    ProbabilityOfImprovement {
        /// Exploration margin ξ added to the incumbent.
        xi: f64,
    },
    /// Expected improvement.
    ExpectedImprovement {
        /// Exploration margin ξ added to the incumbent.
        xi: f64,
    },
    /// Upper confidence bound `μ + κσ`.
    UpperConfidenceBound {
        /// Exploration weight κ.
        kappa: f64,
    },
}

impl Acquisition {
    /// Scores a candidate given the surrogate posterior `(mean, var)` and
    /// the incumbent best objective value. Higher is better.
    pub fn score(&self, mean: f64, var: f64, best: f64) -> f64 {
        let sigma = var.sqrt().max(1e-12);
        match *self {
            Acquisition::ProbabilityOfImprovement { xi } => norm_cdf((mean - best - xi) / sigma),
            Acquisition::ExpectedImprovement { xi } => {
                let z = (mean - best - xi) / sigma;
                (mean - best - xi) * norm_cdf(z) + sigma * norm_pdf(z)
            }
            Acquisition::UpperConfidenceBound { kappa } => mean + kappa * sigma,
        }
    }
}

/// Bayesian-optimizer parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BoParams {
    /// Random probes before the surrogate takes over.
    pub n_init: usize,
    /// Hard cap on total objective evaluations.
    pub max_evals: usize,
    /// Consecutive probes without relative improvement before stopping —
    /// the paper uses 10.
    pub patience: usize,
    /// Relative improvement that resets the patience counter — the paper
    /// uses 1% (0.01).
    pub improvement_rel_tol: f64,
    /// Acquisition function.
    pub acquisition: Acquisition,
    /// Surrogate hyperparameters.
    pub gp: GpParams,
    /// When set, the acquisition argmax is taken over a random subsample of
    /// this many unprobed candidates per iteration instead of all of them —
    /// the standard trick that keeps per-iteration cost flat on huge
    /// candidate grids (the paper's "huge search space", §3.2).
    pub acq_subsample: Option<usize>,
}

impl Default for BoParams {
    fn default() -> Self {
        BoParams {
            n_init: 8,
            max_evals: 64,
            patience: 10,
            improvement_rel_tol: 0.01,
            acquisition: Acquisition::ProbabilityOfImprovement { xi: 0.01 },
            gp: GpParams::default(),
            acq_subsample: None,
        }
    }
}

/// One probe the optimizer made: candidate index and objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Index into the candidate set.
    pub candidate_index: usize,
    /// The (maximised) objective value observed.
    pub objective: f64,
}

/// Result of a Bayesian-optimisation run.
#[derive(Debug, Clone, PartialEq)]
pub struct BoResult {
    /// Index of the best candidate found in the candidate set.
    pub best_index: usize,
    /// Best objective value (maximised).
    pub best_objective: f64,
    /// Every probe in order — Smartpick's `ET_l` estimated-times list.
    pub probes: Vec<Probe>,
    /// Total objective evaluations spent.
    pub evaluations: usize,
}

/// A run in progress: the probes so far, the incumbent, and how many
/// probes in a row failed the §3.1 improvement test.
struct Run {
    improvement_rel_tol: f64,
    probes: Vec<Probe>,
    best_index: usize,
    best_objective: f64,
    stale: usize,
}

impl Run {
    fn new(improvement_rel_tol: f64) -> Run {
        Run {
            improvement_rel_tol,
            probes: Vec::new(),
            best_index: 0,
            best_objective: f64::NEG_INFINITY,
            stale: 0,
        }
    }

    /// Records that candidate `idx` was observed at `y`.
    fn probe(&mut self, idx: usize, y: f64) {
        self.probes.push(Probe {
            candidate_index: idx,
            objective: y,
        });
        let improved = if self.best_objective.is_finite() {
            let scale = self.best_objective.abs().max(1e-9);
            (y - self.best_objective) / scale >= self.improvement_rel_tol
        } else {
            true
        };
        if y > self.best_objective {
            self.best_objective = y;
            self.best_index = idx;
        }
        if improved {
            self.stale = 0;
        } else {
            self.stale += 1;
        }
    }

    fn finish(self) -> BoResult {
        BoResult {
            best_index: self.best_index,
            best_objective: self.best_objective,
            evaluations: self.probes.len(),
            probes: self.probes,
        }
    }
}

/// Maximises a black-box objective over a discrete candidate set.
#[derive(Debug, Clone)]
pub struct BayesianOptimizer {
    params: BoParams,
}

impl BayesianOptimizer {
    /// Creates an optimizer with the given parameters.
    pub fn new(params: BoParams) -> Self {
        BayesianOptimizer { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &BoParams {
        &self.params
    }

    /// Maximises `objective` over `candidates`.
    ///
    /// Candidates are probed at most once each. The run ends when the
    /// paper's termination rule fires (no ≥`improvement_rel_tol` relative
    /// improvement for `patience` consecutive probes), when `max_evals` is
    /// reached, or when every candidate has been probed.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn maximize(
        &self,
        candidates: &[Vec<f64>],
        seed: u64,
        mut objective: impl FnMut(&[f64]) -> f64,
    ) -> BoResult {
        assert!(!candidates.is_empty(), "candidate set must be non-empty");
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unprobed: Vec<usize> = (0..candidates.len()).collect();
        unprobed.shuffle(&mut rng);
        let mut run = Run::new(p.improvement_rel_tol);

        // Phase 1: random initial design.
        let n_init = p.n_init.min(candidates.len()).max(1);
        for _ in 0..n_init {
            let idx = unprobed.pop().expect("n_init bounded by candidate count");
            run.probe(idx, objective(&candidates[idx]));
        }

        // Phase 2: surrogate-guided probes.
        while run.probes.len() < p.max_evals && !unprobed.is_empty() && run.stale < p.patience {
            let xs: Vec<Vec<f64>> = run
                .probes
                .iter()
                .map(|pr| candidates[pr.candidate_index].clone())
                .collect();
            let ys: Vec<f64> = run.probes.iter().map(|pr| pr.objective).collect();
            let next = match GaussianProcess::fit(&xs, &ys, &p.gp) {
                Ok(gp) => {
                    let pool: Vec<usize> = match p.acq_subsample {
                        Some(k) if unprobed.len() > k => {
                            use rand::seq::index::sample;
                            sample(&mut rng, unprobed.len(), k)
                                .into_iter()
                                .map(|i| unprobed[i])
                                .collect()
                        }
                        _ => unprobed.clone(),
                    };
                    let mut best_cand = pool[0];
                    let mut best_score = f64::NEG_INFINITY;
                    for &idx in &pool {
                        let (m, v) = gp.posterior(&candidates[idx]);
                        let s = p.acquisition.score(m, v, run.best_objective);
                        if s > best_score {
                            best_score = s;
                            best_cand = idx;
                        }
                    }
                    best_cand
                }
                // Surrogate failure (degenerate kernel): fall back to a
                // random unprobed candidate rather than aborting the search.
                Err(_) => unprobed[0],
            };
            unprobed.retain(|&i| i != next);
            run.probe(next, objective(&candidates[next]));
        }
        run.finish()
    }

    /// Maximises an objective whose *mean* value at every candidate is
    /// already known — the fast path for callers that evaluate their
    /// model over the whole candidate set up front (Smartpick's
    /// `determine()`). Candidate `i` is `values[i]`; the search never
    /// needs its coordinates.
    ///
    /// The GP surrogate earns its O(n³) keep only while objective
    /// evaluations are scarce; with `values[i]` precomputed there is
    /// nothing left to learn, so the surrogate-guided phase degenerates
    /// to probing unvisited candidates in descending mean order
    /// (exploitation with zero posterior uncertainty). Everything else in
    /// the loop's contract is preserved: the same seeded shuffled initial
    /// design of `n_init` random probes, per-probe observation noise via
    /// `noise` (called once per probe, in probe order, so callers can
    /// stream a seeded RNG through it), every probe recorded for `ET_l`,
    /// candidates probed at most once, and the paper's termination rule
    /// (no ≥`improvement_rel_tol` relative improvement for `patience`
    /// consecutive probes, capped at `max_evals`).
    ///
    /// The probe objective is `values[i] + noise(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn maximize_precomputed(
        &self,
        values: &[f64],
        seed: u64,
        mut noise: impl FnMut(usize) -> f64,
    ) -> BoResult {
        assert!(!values.is_empty(), "candidate set must be non-empty");
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unprobed: Vec<usize> = (0..values.len()).collect();
        unprobed.shuffle(&mut rng);
        let mut probed = vec![false; values.len()];
        let mut run = Run::new(p.improvement_rel_tol);

        // Phase 1: the same random initial design as `maximize`.
        let n_init = p.n_init.min(values.len()).max(1);
        for _ in 0..n_init {
            let idx = unprobed.pop().expect("n_init bounded by candidate count");
            probed[idx] = true;
            run.probe(idx, values[idx] + noise(idx));
        }

        // Phase 2: consume candidates best-mean-first — the order every
        // GP fit + acquisition sweep would converge to. Each entry the
        // loop looks at either is one of the initial probes or becomes a
        // probe, so it ends within `max_evals` entries: only that head is
        // selected and sorted, not the whole grid.
        let best_first = |a: &usize, b: &usize| {
            values[*b]
                .partial_cmp(&values[*a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        };
        let mut order: Vec<usize> = (0..values.len()).collect();
        let head = p.max_evals.min(order.len());
        if (1..order.len()).contains(&head) {
            order.select_nth_unstable_by(head - 1, best_first);
        }
        order.truncate(head);
        order.sort_unstable_by(best_first);
        for idx in order {
            if run.probes.len() >= p.max_evals || run.stale >= p.patience {
                break;
            }
            if probed[idx] {
                continue;
            }
            probed[idx] = true;
            run.probe(idx, values[idx] + noise(idx));
        }
        run.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d(n: usize) -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                v.push(vec![i as f64, j as f64]);
            }
        }
        v
    }

    #[test]
    fn finds_peak_of_smooth_surface() {
        // Peak at (7, 4).
        let candidates = grid_2d(12);
        let bo = BayesianOptimizer::new(BoParams::default());
        let res = bo.maximize(&candidates, 11, |x| {
            -((x[0] - 7.0).powi(2) + (x[1] - 4.0).powi(2))
        });
        let best = &candidates[res.best_index];
        assert!(
            (best[0] - 7.0).abs() + (best[1] - 4.0).abs() <= 3.0,
            "best {best:?}"
        );
        // Far fewer evaluations than the 144-point grid.
        assert!(res.evaluations < candidates.len());
    }

    #[test]
    fn termination_rule_stops_early_on_flat_objective() {
        let candidates = grid_2d(20); // 400 candidates
        let params = BoParams {
            n_init: 4,
            max_evals: 400,
            ..BoParams::default()
        };
        let bo = BayesianOptimizer::new(params);
        let res = bo.maximize(&candidates, 3, |_| 1.0);
        // Constant objective: patience (10) exhausts right after init.
        assert!(res.evaluations <= 4 + 10 + 1, "evals {}", res.evaluations);
    }

    #[test]
    fn probes_are_unique_candidates() {
        let candidates = grid_2d(5);
        let bo = BayesianOptimizer::new(BoParams {
            max_evals: 25,
            patience: 100,
            ..BoParams::default()
        });
        let res = bo.maximize(&candidates, 9, |x| x[0] + x[1]);
        let mut seen: Vec<usize> = res.probes.iter().map(|p| p.candidate_index).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "a candidate was probed twice");
    }

    #[test]
    fn respects_max_evals() {
        let candidates = grid_2d(20);
        let bo = BayesianOptimizer::new(BoParams {
            n_init: 2,
            max_evals: 12,
            patience: 1000,
            ..BoParams::default()
        });
        let res = bo.maximize(&candidates, 1, |x| x[0] * 1000.0 + x[1]);
        assert_eq!(res.evaluations, 12);
    }

    #[test]
    fn deterministic_given_seed() {
        let candidates = grid_2d(8);
        let bo = BayesianOptimizer::new(BoParams::default());
        let a = bo.maximize(&candidates, 5, |x| -(x[0] - 3.0).powi(2) - x[1]);
        let b = bo.maximize(&candidates, 5, |x| -(x[0] - 3.0).powi(2) - x[1]);
        assert_eq!(a.best_index, b.best_index);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn et_list_records_every_probe() {
        let candidates = grid_2d(6);
        let bo = BayesianOptimizer::new(BoParams::default());
        let res = bo.maximize(&candidates, 2, |x| -x[0]);
        assert_eq!(res.probes.len(), res.evaluations);
        assert!(res.probes.iter().any(|p| p.objective == res.best_objective));
    }

    #[test]
    fn acquisition_scores_behave() {
        let pi = Acquisition::ProbabilityOfImprovement { xi: 0.0 };
        // Mean above incumbent => probability > 0.5.
        assert!(pi.score(1.0, 0.25, 0.0) > 0.5);
        assert!(pi.score(-1.0, 0.25, 0.0) < 0.5);
        let ei = Acquisition::ExpectedImprovement { xi: 0.0 };
        assert!(ei.score(1.0, 0.25, 0.0) > ei.score(0.0, 0.25, 0.0));
        let ucb = Acquisition::UpperConfidenceBound { kappa: 2.0 };
        assert!(ucb.score(0.0, 4.0, 0.0) > ucb.score(0.0, 1.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn empty_candidates_panic() {
        let bo = BayesianOptimizer::new(BoParams::default());
        let _ = bo.maximize(&[], 0, |_| 0.0);
    }

    #[test]
    fn precomputed_probes_the_true_argmax_first() {
        let candidates = grid_2d(12);
        let values: Vec<f64> = candidates
            .iter()
            .map(|x| -((x[0] - 7.0).powi(2) + (x[1] - 4.0).powi(2)))
            .collect();
        let bo = BayesianOptimizer::new(BoParams::default());
        let res = bo.maximize_precomputed(&values, 11, |_| 0.0);
        // With zero noise the first greedy probe is the grid argmax, so
        // the best candidate is exact — no surrogate approximation.
        assert_eq!(candidates[res.best_index], vec![7.0, 4.0]);
        assert!(res.evaluations < candidates.len());
        // The argmax is always among the recorded probes (ET_l).
        assert!(res
            .probes
            .iter()
            .any(|p| p.candidate_index == res.best_index));
    }

    #[test]
    fn precomputed_termination_rule_still_applies() {
        let params = BoParams {
            n_init: 4,
            max_evals: 400,
            ..BoParams::default()
        };
        let bo = BayesianOptimizer::new(params);
        let values = vec![1.0; 400];
        let res = bo.maximize_precomputed(&values, 3, |_| 0.0);
        assert!(res.evaluations <= 4 + 10 + 1, "evals {}", res.evaluations);
    }

    #[test]
    fn precomputed_probes_are_unique_and_deterministic() {
        let candidates = grid_2d(6);
        let values: Vec<f64> = candidates.iter().map(|x| x[0] + 2.0 * x[1]).collect();
        let bo = BayesianOptimizer::new(BoParams {
            max_evals: 36,
            patience: 100,
            ..BoParams::default()
        });
        let noisy = |i: usize| (i % 3) as f64 * 0.01;
        let a = bo.maximize_precomputed(&values, 9, noisy);
        let b = bo.maximize_precomputed(&values, 9, noisy);
        assert_eq!(a.probes, b.probes);
        let mut seen: Vec<usize> = a.probes.iter().map(|p| p.candidate_index).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "a candidate was probed twice");
        // Every candidate got probed (max_evals covers the whole grid,
        // values strictly improve so patience never fires early).
        assert_eq!(a.evaluations, 36);
    }

    #[test]
    fn precomputed_noise_is_sampled_once_per_probe_in_order() {
        let values = vec![0.0; 16];
        let bo = BayesianOptimizer::new(BoParams {
            n_init: 2,
            max_evals: 5,
            patience: 100,
            ..BoParams::default()
        });
        let mut calls = Vec::new();
        let res = bo.maximize_precomputed(&values, 1, |i| {
            calls.push(i);
            calls.len() as f64
        });
        assert_eq!(res.evaluations, 5);
        let order: Vec<usize> = res.probes.iter().map(|p| p.candidate_index).collect();
        assert_eq!(calls, order, "noise stream must follow probe order");
        // The recorded objective carries the noise term.
        assert_eq!(res.probes[0].objective, 1.0);
    }

    #[test]
    fn precomputed_probe_order_is_the_full_sorts() {
        use rand::Rng;
        // Selecting the reachable head must not change a single probe:
        // after the initial design, the sequence is the whole grid sorted
        // by (value descending, index ascending), less the initial
        // probes, cut at `max_evals` — over values full of ties.
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..200 {
            let n = rng.gen_range(1..300usize);
            let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0..6) as f64).collect();
            let params = BoParams {
                n_init: rng.gen_range(1..12),
                max_evals: rng.gen_range(1..90),
                patience: usize::MAX,
                ..BoParams::default()
            };
            let bo = BayesianOptimizer::new(params.clone());
            let got: Vec<usize> = bo
                .maximize_precomputed(&values, case, |_| 0.0)
                .probes
                .iter()
                .map(|p| p.candidate_index)
                .collect();
            let (init, rest) = got.split_at(params.n_init.min(n));
            let mut sorted: Vec<usize> = (0..n).collect();
            sorted.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).unwrap().then(a.cmp(&b)));
            let want: Vec<usize> = sorted
                .into_iter()
                .filter(|i| !init.contains(i))
                .take(params.max_evals.saturating_sub(init.len()))
                .collect();
            assert_eq!(rest, want, "case {case}: n {n}, {params:?}");

            // The termination rule only ever cuts that sequence short.
            let patient = BayesianOptimizer::new(BoParams {
                patience: 10,
                ..params
            });
            let cut: Vec<usize> = patient
                .maximize_precomputed(&values, case, |_| 0.0)
                .probes
                .iter()
                .map(|p| p.candidate_index)
                .collect();
            assert_eq!(cut, got[..cut.len()], "case {case}");
        }
    }

    #[test]
    #[should_panic]
    fn precomputed_empty_values_panic() {
        let bo = BayesianOptimizer::new(BoParams::default());
        let _ = bo.maximize_precomputed(&[], 0, |_| 0.0);
    }
}
