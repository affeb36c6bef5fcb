//! Traced replay of the robust design iteration and of the Monte-Carlo
//! post-fab evaluation.
//!
//! The replay makes the same public calls, in the same order and with the
//! same arguments, as `InverseDesigner::run` and `evaluate_post_fab`, and
//! wraps each call in a span. It keeps the runner's arithmetic folds, so a
//! faithful replay ends on the run's θ bit for bit (reported as
//! `replay_matches_run`).

use crate::trace::{Span, Tracer, ITERATION};
use crate::workload::Setup;
use boson_core::compiled::{
    CompiledProblem, CornerProductSolve, CornerSolve, EvalScratch, Evaluation,
};
use boson_core::eval::binarize_mask;
use boson_core::fabchain::{assemble_eps, grad_eps_to_rho, grad_temperature, FabChain, FabForward};
use boson_core::objective::ObjectiveSpec;
use boson_core::optimizer::Adam;
use boson_core::pool::WorkerPool;
use boson_core::runner::RunnerConfig;
use boson_core::schedule::BetaSchedule;
use boson_core::subspace::{SubspaceScheduler, SweepPlan};
use boson_fab::temperature::T_NOMINAL;
use boson_fab::{EtchProjection, VariationCorner, VariationSpace};
use boson_fdfd::sim::SolverStrategy;
use boson_num::Array2;
use boson_param::{LevelSetParam, Parameterization};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Solver counts summed over the replayed iterations, read from each
/// `Evaluation.solve`.
#[derive(Debug, Clone, Default)]
pub struct SolveCounts {
    /// Right-hand sides solved.
    pub solves: usize,
    /// Factorisations performed.
    pub factorizations: usize,
    /// Evaluations armed for the iterative path.
    pub iterative: usize,
    /// Iterative evaluations that fell back to a direct factor.
    pub fallbacks: usize,
    /// Right-hand sides solved iteratively.
    pub iterative_solves: usize,
    /// Summed BiCGSTAB iterations.
    pub bicgstab_iterations: usize,
    /// Worst per-RHS BiCGSTAB iteration count.
    pub max_iterations: usize,
    /// Worst final relative residual of an iterative solve.
    pub max_residual: f64,
}

impl SolveCounts {
    fn add(&mut self, ev: &Evaluation) {
        let r = &ev.solve;
        self.solves += r.solves;
        self.factorizations += ev.factorizations;
        if r.used_iterative {
            self.iterative += 1;
            self.iterative_solves += r.solves;
            self.bicgstab_iterations += r.total_iterations;
            self.max_iterations = self.max_iterations.max(r.max_iterations);
            self.max_residual = self.max_residual.max(r.max_residual);
        }
        self.fallbacks += usize::from(r.fell_back);
    }

    fn merge(&mut self, other: &SolveCounts) {
        self.solves += other.solves;
        self.factorizations += other.factorizations;
        self.iterative += other.iterative;
        self.fallbacks += other.fallbacks;
        self.iterative_solves += other.iterative_solves;
        self.bicgstab_iterations += other.bicgstab_iterations;
        self.max_iterations = self.max_iterations.max(other.max_iterations);
        self.max_residual = self.max_residual.max(other.max_residual);
    }
}

/// What a replayed design run produced.
#[derive(Debug, Clone)]
pub struct DesignReplay {
    /// Final latent vector.
    pub theta: Vec<f64>,
    /// Robust objective of every iteration.
    pub objectives: Vec<f64>,
    /// Solver counts over all iterations.
    pub counts: SolveCounts,
}

/// Per-corner result, as the runner's `CornerOutcome` (the nominal
/// readings it also carries only feed the runner's trajectory record).
struct Outcome {
    objective: f64,
    v_mask: Array2<f64>,
    variation_grads: Option<(f64, Vec<f64>)>,
}

/// The runner's adaptive corner policy: corners whose iterative solve
/// fell back are pinned to the direct path when their label names the
/// same perturbation every iteration.
#[derive(Default)]
struct Policy(Mutex<HashSet<String>>);

impl Policy {
    fn force_direct(&self, c: &VariationCorner) -> bool {
        c.xi.is_empty() && self.0.lock().expect("policy lock").contains(&c.label)
    }

    fn mark_direct(&self, c: &VariationCorner) {
        if c.xi.is_empty() {
            self.0.lock().expect("policy lock").insert(c.label.clone());
        }
    }
}

/// One replay: the workload's problem, chain and configuration.
struct Ctx<'a> {
    compiled: &'a CompiledProblem,
    chain: &'a FabChain,
    param: &'a LevelSetParam,
    space: &'a VariationSpace,
    config: &'a RunnerConfig,
    objective: ObjectiveSpec,
    policy: Policy,
}

impl Ctx<'_> {
    fn iterative(&self) -> bool {
        !matches!(self.config.solver, SolverStrategy::Direct)
    }

    /// The runner's `eval_corner`: fabrication forward, one corner
    /// evaluation, chain backward.
    #[allow(clippy::too_many_arguments)]
    fn eval_corner(
        &self,
        tr: &mut Tracer,
        counts: &mut SolveCounts,
        rho: &Array2<f64>,
        corner: &VariationCorner,
        etch: EtchProjection,
        want_variation_grads: bool,
        scratch: &mut EvalScratch,
        nominal_eps: Option<&Array2<f64>>,
        epoch: u64,
    ) -> Outcome {
        let problem = self.compiled.problem();
        let fwd = tr.time("fabchain.forward", || {
            self.chain.forward_with_etch(rho, corner, false, etch)
        });
        let eps = tr.time("fabchain.assemble", || {
            assemble_eps(
                &problem.background_solid,
                problem.design_origin,
                &fwd.rho_fab,
                corner.temperature,
            )
        });
        let ev = match nominal_eps {
            Some(nominal_eps) => {
                let cs = CornerSolve {
                    strategy: self.config.solver,
                    nominal_eps,
                    epoch,
                    is_nominal: false,
                    force_direct: self.policy.force_direct(corner),
                    omega_idx: corner.omega_idx,
                };
                tr.time("compiled.evaluate_eps_corner", || {
                    self.compiled.evaluate_eps_corner(
                        &eps,
                        true,
                        &self.objective,
                        scratch,
                        Some(&cs),
                    )
                })
            }
            None => tr.time("compiled.evaluate_eps_omega", || {
                self.compiled.evaluate_eps_omega(
                    &eps,
                    true,
                    &self.objective,
                    scratch,
                    corner.omega_idx,
                )
            }),
        }
        .expect("corner simulation failed");
        counts.add(&ev);
        if ev.solve.fell_back {
            self.policy.mark_direct(corner);
        }
        let grad_eps = ev.grad_eps.as_ref().expect("gradient requested");
        let v_rho = tr.time("fabchain.grad_eps_to_rho", || {
            grad_eps_to_rho(
                grad_eps,
                problem.design_origin,
                problem.design_shape,
                corner.temperature,
            )
        });
        let v_mask = tr.time("fabchain.vjp", || {
            self.chain.vjp_mask_with_etch(&fwd, &v_rho, etch)
        });
        let variation_grads = want_variation_grads
            .then(|| self.variation_grads(tr, grad_eps, &fwd, &v_rho, corner, etch));
        Outcome {
            objective: ev.objective,
            v_mask,
            variation_grads,
        }
    }

    /// `(d obj/dT, d obj/dξ)` for the worst-case corner search.
    fn variation_grads(
        &self,
        tr: &mut Tracer,
        grad_eps: &Array2<f64>,
        fwd: &FabForward,
        v_rho: &Array2<f64>,
        corner: &VariationCorner,
        etch: EtchProjection,
    ) -> (f64, Vec<f64>) {
        let problem = self.compiled.problem();
        let dt = tr.time("fabchain.grad_temperature", || {
            grad_temperature(
                grad_eps,
                &problem.background_solid,
                problem.design_origin,
                &fwd.rho_fab,
                corner.temperature,
            )
        });
        let dxi = tr.time("fabchain.vjp_xi", || {
            self.chain.vjp_xi_with_etch(fwd, v_rho, etch)
        });
        (dt, dxi)
    }

    /// The runner's direct fan-out: every corner on the corner pool (or
    /// inline on one lane), results in corner order.
    #[allow(clippy::too_many_arguments)]
    fn eval_corners_direct(
        &self,
        tr: &mut Tracer,
        counts: &mut SolveCounts,
        pool: Option<&mut CornerPool<'_>>,
        iter: usize,
        rho: &Arc<Array2<f64>>,
        corners: &[VariationCorner],
        etch: EtchProjection,
        nominal_idx: Option<usize>,
        scratch: &mut EvalScratch,
    ) -> Vec<Outcome> {
        match pool {
            Some(pool) if corners.len() > 1 => {
                for (ci, corner) in corners.iter().enumerate() {
                    pool.submit(Job {
                        slot: ci,
                        iter,
                        rho: Arc::clone(rho),
                        corner: corner.clone(),
                        etch,
                        want_variation_grads: Some(ci) == nominal_idx,
                    });
                }
                let mut slots: Vec<Option<Outcome>> = (0..corners.len()).map(|_| None).collect();
                for _ in 0..corners.len() {
                    let (slot, out, spans, lane_counts) = pool.recv();
                    tr.adopt(spans);
                    counts.merge(&lane_counts);
                    slots[slot] = Some(out);
                }
                slots
                    .into_iter()
                    .map(|s| s.expect("every slot filled"))
                    .collect()
            }
            _ => corners
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    self.eval_corner(
                        tr,
                        counts,
                        rho,
                        c,
                        etch,
                        Some(ci) == nominal_idx,
                        scratch,
                        None,
                        0,
                    )
                })
                .collect(),
        }
    }

    /// The runner's batched iterative fan-out over the active columns of
    /// the ω-major (corner × ω) product, folded over ω per live corner.
    #[allow(clippy::too_many_arguments)]
    fn eval_corners_batched(
        &self,
        tr: &mut Tracer,
        counts: &mut SolveCounts,
        rho: &Array2<f64>,
        corners: &[VariationCorner],
        etch: EtchProjection,
        nominal_eps: &Array2<f64>,
        epoch: u64,
        scratch: &mut EvalScratch,
        active: &[bool],
        observations: &mut Vec<(usize, f64, f64, f64)>,
    ) -> (Vec<Outcome>, Option<usize>) {
        let problem = self.compiled.problem();
        let k = self.compiled.omega_count();
        let f_count = corners.len() / k;
        let fab = &corners[..f_count];
        let live: Vec<usize> = (0..f_count)
            .filter(|&f| (0..k).any(|oi| active[oi * f_count + f]))
            .collect();
        let fwds: Vec<FabForward> = live
            .iter()
            .map(|&f| {
                tr.time("fabchain.forward", || {
                    self.chain.forward_with_etch(rho, &fab[f], false, etch)
                })
            })
            .collect();
        let epss_live: Vec<Array2<f64>> = live
            .iter()
            .zip(&fwds)
            .map(|(&f, fwd)| {
                tr.time("fabchain.assemble", || {
                    assemble_eps(
                        &problem.background_solid,
                        problem.design_origin,
                        &fwd.rho_fab,
                        fab[f].temperature,
                    )
                })
            })
            .collect();
        let mut sel: Vec<(usize, usize)> = Vec::with_capacity(corners.len());
        let mut pos_of: Vec<usize> = vec![usize::MAX; k * live.len()];
        for oi in 0..k {
            for (li, &f) in live.iter().enumerate() {
                let ci = oi * f_count + f;
                if active[ci] {
                    pos_of[oi * live.len() + li] = sel.len();
                    sel.push((ci, li));
                }
            }
        }
        let epss: Vec<Array2<f64>> = sel.iter().map(|&(_, li)| epss_live[li].clone()).collect();
        let force_direct: Vec<bool> = sel
            .iter()
            .map(|&(ci, _)| self.policy.force_direct(&corners[ci]))
            .collect();
        let omega_idx: Vec<usize> = sel.iter().map(|&(ci, _)| corners[ci].omega_idx).collect();
        let is_nominal: Vec<bool> = sel
            .iter()
            .map(|&(ci, _)| !corners[ci].is_varied())
            .collect();
        let fab_idx: Vec<usize> = sel.iter().map(|&(_, li)| li).collect();
        let global_cols: Vec<usize> = sel.iter().map(|&(ci, _)| ci).collect();
        let set = CornerProductSolve {
            strategy: self.config.solver,
            nominal_eps,
            epoch,
            omega_idx: &omega_idx,
            is_nominal: &is_nominal,
            force_direct: &force_direct,
            threads: self.config.threads,
            skip_zero_weight_adjoints: Some((self.config.spectral_agg, &fab_idx)),
            recycle: (self.config.recycle.directions > 0).then_some(global_cols.as_slice()),
        };
        let evals = tr
            .time("compiled.evaluate_corner_product", || {
                self.compiled
                    .evaluate_corner_product(&epss, true, &self.objective, scratch, &set)
            })
            .expect("corner sweep failed");
        for (&(ci, _), ev) in sel.iter().zip(&evals) {
            counts.add(ev);
            if ev.solve.fell_back {
                self.policy.mark_direct(&corners[ci]);
            }
        }

        let agg = self.config.spectral_agg;
        let nominal_oi = self.compiled.nominal_omega_idx();
        let fab_nominal = live.iter().position(|&f| !fab[f].is_varied());
        let (dr, dc) = problem.design_shape;
        let mut values = vec![0.0; k];
        let mut omask = vec![false; k];
        let mut sweights = vec![0.0; k];
        let outcomes = (0..live.len())
            .map(|li| {
                let f = live[li];
                for oi in 0..k {
                    let pos = pos_of[oi * live.len() + li];
                    omask[oi] = pos != usize::MAX;
                    values[oi] = if omask[oi] { evals[pos].objective } else { 0.0 };
                }
                agg.weights_into_masked(&values, &omask, &mut sweights);
                let mut seed = Array2::<f64>::zeros(dr, dc);
                for oi in 0..k {
                    let wk = sweights[oi];
                    let mut gnorm = f64::NAN;
                    if wk != 0.0 {
                        let grad_eps = evals[pos_of[oi * live.len() + li]]
                            .grad_eps
                            .as_ref()
                            .expect("weighted entry carries a gradient");
                        let v_rho = tr.time("fabchain.grad_eps_to_rho", || {
                            grad_eps_to_rho(
                                grad_eps,
                                problem.design_origin,
                                problem.design_shape,
                                fab[f].temperature,
                            )
                        });
                        gnorm = v_rho.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
                        for (dst, src) in seed.as_mut_slice().iter_mut().zip(v_rho.as_slice()) {
                            *dst += wk * src;
                        }
                    }
                    if omask[oi] {
                        observations.push((oi * f_count + f, values[oi], sweights[oi], gnorm));
                    }
                }
                let v_mask = tr.time("fabchain.vjp", || {
                    self.chain.vjp_mask_with_etch(&fwds[li], &seed, etch)
                });
                let centre_pos = {
                    let p = pos_of[nominal_oi * live.len() + li];
                    if p != usize::MAX {
                        p
                    } else {
                        (0..k)
                            .map(|oi| pos_of[oi * live.len() + li])
                            .find(|&p| p != usize::MAX)
                            .expect("live corner has an active wavelength")
                    }
                };
                let centre = &evals[centre_pos];
                let variation_grads = (Some(li) == fab_nominal).then(|| {
                    let grad_eps = centre.grad_eps.as_ref().expect("gradient requested");
                    let v_rho_centre = grad_eps_to_rho(
                        grad_eps,
                        problem.design_origin,
                        problem.design_shape,
                        fab[f].temperature,
                    );
                    self.variation_grads(tr, grad_eps, &fwds[li], &v_rho_centre, &fab[f], etch)
                });
                Outcome {
                    objective: agg.aggregate_masked(&values, &omask),
                    v_mask,
                    variation_grads,
                }
            })
            .collect();
        (outcomes, fab_nominal)
    }
}

/// The direct fan-out's corner pool: each lane returns its outcome with
/// the spans and solver counts it recorded.
type CornerPool<'env> = WorkerPool<'env, Job, (usize, Outcome, Vec<Span>, SolveCounts)>;

/// One corner job for the direct fan-out.
struct Job {
    slot: usize,
    iter: usize,
    rho: Arc<Array2<f64>>,
    corner: VariationCorner,
    etch: EtchProjection,
    want_variation_grads: bool,
}

/// Replays `setup`'s design run from `theta0` under `config`, recording
/// one `replay.iteration` root span per iteration.
pub fn design(
    setup: &Setup,
    config: &RunnerConfig,
    theta0: &[f64],
    tr: &mut Tracer,
) -> DesignReplay {
    let ctx = Ctx {
        compiled: &setup.compiled,
        chain: &setup.chain,
        param: &setup.param,
        space: &setup.space,
        config,
        objective: if config.dense_objectives {
            setup.compiled.problem().objective.clone()
        } else {
            setup.compiled.problem().objective.sparse()
        },
        policy: Policy::default(),
    };
    let problem = ctx.compiled.problem();
    let mut theta = theta0.to_vec();
    let mut adam = Adam::new(theta.len(), config.adam);
    let beta_sched =
        BetaSchedule::new(config.beta_start, config.beta_end, config.iterations.max(1));
    let (dr, dc) = ctx.param.design_shape();
    let mut counts = SolveCounts::default();
    let mut objectives = Vec::with_capacity(config.iterations);
    let mut scratch = EvalScratch::new();
    scratch.configure_recycling(&config.recycle);
    let mut subspace = (config.fab_aware && config.subspace.is_enabled()).then(|| {
        SubspaceScheduler::new(ctx.space.product_columns(config.sampling), config.subspace)
    });
    let mut observations: Vec<(usize, f64, f64, f64)> = Vec::new();
    let pool_threads = {
        let t = config.threads.min(config.sampling.corners_per_iteration());
        if !config.fab_aware || ctx.iterative() || t <= 1 {
            0
        } else {
            t
        }
    };
    let epoch = tr.epoch();
    let ctx_ref = &ctx;
    let mut pool: Option<CornerPool<'_>> = (pool_threads > 0).then(|| {
        WorkerPool::new(pool_threads, |_| {
            let mut scratch = EvalScratch::new();
            let mut lane = Tracer::new(epoch);
            move |job: Job| {
                lane.set_iter(job.iter);
                let mut c = SolveCounts::default();
                let out = ctx_ref.eval_corner(
                    &mut lane,
                    &mut c,
                    &job.rho,
                    &job.corner,
                    job.etch,
                    job.want_variation_grads,
                    &mut scratch,
                    None,
                    0,
                );
                (job.slot, out, lane.take(), c)
            }
        })
    });

    for iter in 0..config.iterations {
        tr.set_iter(iter);
        let root = tr.begin(ITERATION);
        let etch = EtchProjection::new(beta_sched.beta(iter));
        let rho = Arc::new(tr.time("param.forward", || ctx.param.forward(&theta)));
        let p = if config.fab_aware {
            config.relaxation.p(iter)
        } else {
            0.0
        };
        let mut v_mask_total = Array2::<f64>::zeros(dr, dc);
        let mut objective = 0.0;

        if config.fab_aware {
            let mut rng = StdRng::seed_from_u64(config.seed ^ (iter as u64).wrapping_mul(0x9E37));
            let lambda_c = 2.0 * std::f64::consts::PI / problem.omega;
            let mut corners = tr.time("fab.spectral_corners", || {
                ctx.space
                    .spectral_corners(config.sampling, lambda_c, &mut rng)
            });
            let k = ctx.compiled.omega_count();
            let nominal_oi = ctx.compiled.nominal_omega_idx();
            let nominal_idx = corners
                .iter()
                .position(|c| !c.is_varied() && c.omega_idx == nominal_oi);
            let nominal_eps: Option<Array2<f64>> = ctx.iterative().then(|| {
                let fwd = tr.time("fabchain.forward", || {
                    ctx.chain
                        .forward_with_etch(&rho, &VariationCorner::nominal(), false, etch)
                });
                tr.time("fabchain.assemble", || {
                    assemble_eps(
                        &problem.background_solid,
                        problem.design_origin,
                        &fwd.rho_fab,
                        T_NOMINAL,
                    )
                })
            });
            let (outcomes, agg_k, agg_nominal_idx) = if ctx.iterative() {
                let plan = match subspace.as_ref() {
                    Some(s) => {
                        let forced: Vec<bool> = corners.iter().map(|c| !c.is_varied()).collect();
                        tr.time("subspace.plan", || s.plan(iter, &forced))
                    }
                    None => SweepPlan {
                        active: vec![true; corners.len()],
                        refresh: true,
                    },
                };
                observations.clear();
                let (outcomes, nominal_li) = ctx.eval_corners_batched(
                    tr,
                    &mut counts,
                    &rho,
                    &corners,
                    etch,
                    nominal_eps.as_ref().expect("iterative strategy nominal"),
                    iter as u64,
                    &mut scratch,
                    &plan.active,
                    &mut observations,
                );
                if let Some(s) = subspace.as_mut() {
                    tr.time("subspace.record", || {
                        for &(ci, obj, w, g) in &observations {
                            s.record(ci, obj, w);
                            if g.is_finite() {
                                s.record_gradient(ci, g);
                            }
                        }
                    });
                }
                (outcomes, 1, nominal_li)
            } else {
                let outcomes = ctx.eval_corners_direct(
                    tr,
                    &mut counts,
                    pool.as_mut(),
                    iter,
                    &rho,
                    &corners,
                    etch,
                    nominal_idx,
                    &mut scratch,
                );
                (outcomes, k, nominal_idx)
            };
            let agg_product_len = outcomes.len();
            let mut all_outcomes = outcomes;
            if config.sampling.needs_worst_case() {
                if let Some(ni) = agg_nominal_idx {
                    if let Some((dt, dxi)) = &all_outcomes[ni].variation_grads {
                        let mut worst = ctx.space.worst_case_corner(*dt, dxi);
                        worst.omega_idx = nominal_oi;
                        let o = ctx.eval_corner(
                            tr,
                            &mut counts,
                            &rho,
                            &worst,
                            etch,
                            false,
                            &mut scratch,
                            nominal_eps.as_ref(),
                            iter as u64,
                        );
                        corners.push(worst);
                        all_outcomes.push(o);
                    }
                }
            }
            let agg_f_count = agg_product_len / agg_k;
            let extras = all_outcomes.len() - agg_product_len;
            let w = 1.0 / (agg_f_count + extras) as f64;
            let agg = config.spectral_agg;
            let mut values = vec![0.0; agg_k];
            let mut sweights = vec![0.0; agg_k];
            let mut obj_fab = 0.0;
            let mut v_fab = Array2::<f64>::zeros(dr, dc);
            for f in 0..agg_f_count {
                for oi in 0..agg_k {
                    values[oi] = all_outcomes[oi * agg_f_count + f].objective;
                }
                obj_fab += w * agg.aggregate(&values);
                agg.weights_into(&values, &mut sweights);
                for oi in 0..agg_k {
                    let wk = w * sweights[oi];
                    if wk != 0.0 {
                        let o = &all_outcomes[oi * agg_f_count + f];
                        for (dst, src) in v_fab.as_mut_slice().iter_mut().zip(o.v_mask.as_slice()) {
                            *dst += wk * src;
                        }
                    }
                }
            }
            for o in &all_outcomes[agg_product_len..] {
                obj_fab += w * agg.aggregate(&[o.objective]);
                for (dst, src) in v_fab.as_mut_slice().iter_mut().zip(o.v_mask.as_slice()) {
                    *dst += w * src;
                }
            }
            objective += p * obj_fab;
            for (dst, src) in v_mask_total.as_mut_slice().iter_mut().zip(v_fab.as_slice()) {
                *dst += p * src;
            }
        }

        if p < 1.0 {
            let eps = tr.time("fabchain.assemble", || {
                assemble_eps(
                    &problem.background_solid,
                    problem.design_origin,
                    &rho,
                    T_NOMINAL,
                )
            });
            let ev = tr
                .time("compiled.evaluate_eps_scratch", || {
                    ctx.compiled
                        .evaluate_eps_scratch(&eps, true, &ctx.objective, &mut scratch)
                })
                .expect("free simulation failed");
            counts.add(&ev);
            let v_free = tr.time("fabchain.grad_eps_to_rho", || {
                grad_eps_to_rho(
                    ev.grad_eps.as_ref().expect("gradient requested"),
                    problem.design_origin,
                    problem.design_shape,
                    T_NOMINAL,
                )
            });
            objective += (1.0 - p) * ev.objective;
            for (dst, src) in v_mask_total
                .as_mut_slice()
                .iter_mut()
                .zip(v_free.as_slice())
            {
                *dst += (1.0 - p) * src;
            }
        }

        let grad_theta = tr.time("param.vjp", || ctx.param.vjp(&theta, &v_mask_total));
        tr.time("optimizer.step", || adam.step(&mut theta, &grad_theta));
        objectives.push(objective);
        tr.end(root);
    }
    DesignReplay {
        theta,
        objectives,
        counts,
    }
}

/// Replays `evaluate_post_fab(compiled, chain, space, mask, samples,
/// seed)` one sample at a time, each an `eval.sample` span; returns the
/// sample FoMs.
pub fn post_fab(
    setup: &Setup,
    space: &VariationSpace,
    mask: &Array2<f64>,
    samples: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Vec<f64> {
    let problem = setup.compiled.problem();
    let binary = binarize_mask(mask);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..samples)
        .map(|_| {
            let id = tr.begin("eval.sample");
            let corner = space.sample_random(&mut rng);
            let fwd = tr.time("fabchain.forward_hard", || {
                setup.chain.forward(&binary, &corner, true)
            });
            let eps = tr.time("fabchain.assemble", || {
                assemble_eps(
                    &problem.background_solid,
                    problem.design_origin,
                    &fwd.rho_fab,
                    corner.temperature,
                )
            });
            let ev = tr
                .time("compiled.evaluate_eps", || {
                    setup.compiled.evaluate_eps(&eps, false)
                })
                .expect("MC evaluation failed");
            tr.end(id);
            ev.fom
        })
        .collect()
}
