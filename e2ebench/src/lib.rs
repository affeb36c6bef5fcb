//! End-to-end robust-design benchmark of the BOSON-1 stack.
//!
//! One closed-loop run per workload: set-up (compile, chain, designer),
//! a fixed-length `InverseDesigner::run`, then the Monte-Carlo post-fab
//! evaluation of its mask, repeated for the requested time. A separate
//! traced run replays the same design iteration from this crate with a
//! span around every library call, runs the leave-one-out layer
//! ablations and times single-kernel probes. See `README.md` for the
//! workloads, the metrics and the layer → metric map.

pub mod replay;
pub mod trace;
pub mod workload;

use boson_core::compiled::{CornerProductSolve, EvalScratch, RecycleConfig};
use boson_core::eval::{evaluate_post_fab, PostFabReport};
use boson_core::fabchain::assemble_eps;
use boson_core::runner::{RunResult, RunnerConfig};
use boson_core::subspace::{SubspaceConfig, SubspaceScheduler};
use boson_fab::temperature::T_NOMINAL;
use boson_fab::{EtchProjection, VariationSpace};
use boson_fdfd::sim::{SimWorkspace, SolverStrategy};
use boson_num::Array2;
use boson_param::Parameterization;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{median, Tracer};
use workload::{mc_seed, Scale, Setup, Workload};

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("design_s", "s"),
    ("postfab_s", "s"),
    ("postfab_fom", "frac"),
    ("postfab_fom_min", "frac"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics of the traced run, `(name, unit)`, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("runner.factorizations_per_iter", "count"),
    ("runner.bicgstab_iters_mean", "count"),
    ("subspace.active_frac", "frac"),
    ("subspace.refresh_iters", "count"),
    ("banded.factor_ms", "ms"),
    ("banded.gflops_computed", "GFLOP/s"),
    ("krylov.iters_mean", "count"),
    ("krylov.iters_max", "count"),
    ("krylov.max_residual", "rel"),
    ("sim.solves", "count"),
    ("sim.factorizations", "count"),
    ("sim.fallback_frac", "frac"),
    ("compiled.product_solve_ms", "ms"),
    ("compiled.corner_solve_ms", "ms"),
    ("fabchain.forward_ms", "ms"),
    ("fabchain.vjp_ms", "ms"),
    ("fabchain.assemble_ms", "ms"),
    ("param.forward_ms", "ms"),
    ("param.vjp_ms", "ms"),
    ("optimizer.step_ms", "ms"),
    ("subspace.plan_ms", "ms"),
    ("compiled.compile_ms", "ms"),
    ("eval.sample_ms", "ms"),
    ("pool.dispatch_us", "us"),
    ("ablate.recycle_speedup", "x"),
    ("ablate.subspace_speedup", "x"),
    ("ablate.multigrid_speedup", "x"),
    ("ablate.lanes_speedup", "x"),
    ("trace.coverage", "frac"),
    ("trace.replay_vs_run", "x"),
];

/// A seed kept out of every measurement made while the benchmark and the
/// changes it judges are written; a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Reference post-fab FoM per `(workload, seed)` at the benchmark's own
/// scale, recorded when the benchmark was defined (seeds 0–15; the
/// held-out seed is deliberately absent).
const REFERENCE_FOM: &[(&str, u64, f64)] = &[
    ("bend_paper", 0, 0.8466200962787497),
    ("bend_paper", 1, 0.8492640098743145),
    ("bend_paper", 2, 0.8392842274147442),
    ("bend_paper", 3, 0.8414536921796107),
    ("bend_paper", 4, 0.8390989556852998),
    ("bend_paper", 5, 0.8425563204665147),
    ("bend_paper", 6, 0.8427502399745234),
    ("bend_paper", 7, 0.8400690924711832),
    ("bend_paper", 8, 0.8534915979488272),
    ("bend_paper", 9, 0.836828172118685),
    ("bend_paper", 10, 0.8411906541469409),
    ("bend_paper", 11, 0.8388991665431695),
    ("bend_paper", 12, 0.8324905500891921),
    ("bend_paper", 13, 0.8442117008875131),
    ("bend_paper", 14, 0.8428546735943115),
    ("bend_paper", 15, 0.8502996236104462),
    ("bend_broadband", 0, 0.6487680997913339),
    ("bend_broadband", 1, 0.6422820317968843),
    ("bend_broadband", 2, 0.6315620446975884),
    ("bend_broadband", 3, 0.6463929615529406),
    ("bend_broadband", 4, 0.615553347595842),
    ("bend_broadband", 5, 0.6634906213942802),
    ("bend_broadband", 6, 0.6574149821804819),
    ("bend_broadband", 7, 0.6552455120493565),
    ("bend_broadband", 8, 0.6627163495075616),
    ("bend_broadband", 9, 0.6523589367561036),
    ("bend_broadband", 10, 0.6192028155245378),
    ("bend_broadband", 11, 0.6413909467403519),
    ("bend_broadband", 12, 0.622416421347487),
    ("bend_broadband", 13, 0.6802429725062565),
    ("bend_broadband", 14, 0.6495030885718108),
    ("bend_broadband", 15, 0.6352421312327783),
    ("bend_fine_mg", 0, 0.9301098542850831),
    ("bend_fine_mg", 1, 0.9304213418745447),
    ("bend_fine_mg", 2, 0.946787106663454),
    ("bend_fine_mg", 3, 0.9345803553841412),
    ("bend_fine_mg", 4, 0.9373464307549613),
    ("bend_fine_mg", 5, 0.9263537598291386),
    ("bend_fine_mg", 6, 0.9457028750748216),
    ("bend_fine_mg", 7, 0.9366729249512948),
    ("bend_fine_mg", 8, 0.9365183068420476),
    ("bend_fine_mg", 9, 0.9410790344182169),
    ("bend_fine_mg", 10, 0.9329566955543255),
    ("bend_fine_mg", 11, 0.9234376748708973),
    ("bend_fine_mg", 12, 0.936081086043723),
    ("bend_fine_mg", 13, 0.94097246120482),
    ("bend_fine_mg", 14, 0.9365842088100425),
    ("bend_fine_mg", 15, 0.9355708434889892),
];

/// Half-width of the per-seed reference band.
const SEED_BAND: f64 = 0.025;

/// Acceptable post-fab FoM of a workload at a seed: the recorded
/// reference ± [`SEED_BAND`] when there is one; otherwise the band
/// spanned by the workload's references widened by 0.1 (or the physical
/// range when the scale is not the benchmark's).
pub fn fom_band(workload: Workload, seed: u64, scale: Scale) -> (f64, f64) {
    if scale != workload.scale() {
        return (0.0, 1.0);
    }
    let refs: Vec<(u64, f64)> = REFERENCE_FOM
        .iter()
        .filter(|(w, _, _)| *w == workload.name())
        .map(|&(_, s, f)| (s, f))
        .collect();
    if let Some(&(_, f)) = refs.iter().find(|(s, _)| *s == seed) {
        return (f - SEED_BAND, f + SEED_BAND);
    }
    if refs.is_empty() {
        return (0.0, 1.0);
    }
    let lo = refs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let hi = refs.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
    ((lo - 0.1).max(0.0), (hi + 0.1).min(1.0))
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: perturbs θ0, the runner's seed and the MC seed.
    pub seed: u64,
    /// Measuring time of an end-to-end run.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer run.
    pub trace: bool,
    /// Iteration, sample and repeat counts.
    pub scale: Scale,
    /// Worker lanes (at most the host's available parallelism).
    pub lanes: usize,
    /// Puts a NaN into θ0 (self-test of the failure counter).
    pub poison: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted: design iterations plus MC samples.
    pub attempted: usize,
    /// Operations that panicked, returned a non-finite objective or FoM,
    /// or failed a correctness check.
    pub failed: usize,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Why operations failed, and other findings worth printing.
    pub notes: Vec<String>,
    /// Lines printed before the result: the per-repeat timings of an
    /// end-to-end run, the span table of a traced run.
    pub detail: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts attempted and failed operations.
#[derive(Debug, Default)]
struct Ledger {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Ledger {
    /// Books a design run of `iterations`; `identical_to` is the θ the
    /// run must reproduce bit for bit, when there is one. Returns the run
    /// when it completed with finite objectives.
    fn design<'r>(
        &mut self,
        what: &str,
        iterations: usize,
        run: &'r Result<RunResult, String>,
        identical_to: Option<&[f64]>,
    ) -> Option<&'r RunResult> {
        self.attempted += iterations;
        let run = match run {
            Ok(run) => run,
            Err(msg) => {
                self.fail(iterations, format!("{what}: panicked: {msg}"));
                return None;
            }
        };
        let bad = iterations
            - run
                .trajectory
                .iter()
                .filter(|r| r.objective.is_finite())
                .count();
        if bad > 0 {
            self.fail(bad, format!("{what}: {bad} non-finite objectives"));
            return None;
        }
        if let Some(theta) = identical_to {
            if !bit_identical(theta, &run.theta) {
                self.fail(
                    iterations,
                    format!("{what}: final θ differs from the reference run"),
                );
                return None;
            }
        }
        Some(run)
    }

    /// Books a post-fab evaluation of `samples` samples and checks its
    /// mean against `band`. Returns the sample FoMs when all passed.
    fn post_fab(
        &mut self,
        samples: usize,
        foms: Result<Vec<f64>, String>,
        band: (f64, f64),
    ) -> Option<Vec<f64>> {
        self.attempted += samples;
        let foms = match foms {
            Ok(f) => f,
            Err(msg) => {
                self.fail(samples, format!("post-fab: panicked: {msg}"));
                return None;
            }
        };
        let bad = foms.iter().filter(|f| !f.is_finite()).count();
        if bad > 0 {
            self.fail(bad, format!("post-fab: {bad} non-finite FoMs"));
            return None;
        }
        let mean = foms.iter().sum::<f64>() / foms.len() as f64;
        if !(band.0..=band.1).contains(&mean) {
            self.fail(
                samples,
                format!("post-fab: mean FoM {mean} outside the reference band {band:?}"),
            );
            return None;
        }
        Some(foms)
    }

    fn fail(&mut self, ops: usize, note: String) {
        self.failed += ops;
        self.notes.push(note);
    }
}

fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

/// One timed design run under `config` from `theta0` on a fresh
/// designer (designer construction is not timed; set-up times it).
fn timed_design(
    setup: &Setup,
    config: &RunnerConfig,
    theta0: &[f64],
) -> (f64, Result<RunResult, String>) {
    let mut designer = setup.designer(config.clone());
    let start = Instant::now();
    let run = guarded(|| designer.run(theta0.to_vec()));
    (start.elapsed().as_secs_f64(), run)
}

/// One untimed design iteration: sizes the solver buffers and settles
/// the allocator's reuse thresholds, so every timed design runs warm (a
/// cold first run is up to ~20% slower, which would make a median depend
/// on how many repeats fit).
fn warm_up(setup: &Setup) {
    let warm = RunnerConfig {
        iterations: 1,
        ..setup.config.clone()
    };
    let _ = timed_design(setup, &warm, &setup.theta0);
}

/// One timed `evaluate_post_fab` of `mask`.
fn timed_post_fab(
    setup: &Setup,
    mask: &Array2<f64>,
    samples: usize,
    seed: u64,
) -> (f64, Result<PostFabReport, String>) {
    let start = Instant::now();
    let report = guarded(|| {
        evaluate_post_fab(
            &setup.compiled,
            &setup.chain,
            &VariationSpace::default(),
            mask,
            samples,
            mc_seed(seed),
        )
    });
    (start.elapsed().as_secs_f64(), report)
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        end_to_end(opts)
    }
}

fn seeded_setup(opts: &Options) -> Setup {
    let mut setup = Setup::new(opts.workload, opts.scale.iterations, opts.seed, opts.lanes);
    if opts.poison {
        setup.theta0[0] = f64::NAN;
    }
    setup
}

/// Design repeats an end-to-end run makes at least, however long they
/// take: the median of three rejects one disturbed repeat.
const MIN_DESIGNS: usize = 3;
/// Post-fab evaluations an end-to-end run makes at least.
const MIN_POST_FABS: usize = 3;

/// The end-to-end run: set-up `setup_repeats` times, then timed design
/// runs, each followed by a timed post-fab evaluation of its mask. Every
/// design must reproduce the first one's θ. A stage starts only when the
/// last timings say it ends within the measuring time (so the last
/// design may go without its post-fab), which keeps a run within
/// `--seconds`, past it only to reach [`MIN_DESIGNS`] and
/// [`MIN_POST_FABS`].
fn end_to_end(opts: &Options) -> Report {
    let scale = opts.scale;
    let mut setup_s = Vec::with_capacity(scale.setup_repeats);
    let mut setup = seeded_setup(opts);
    setup_s.push(setup.setup_s);
    for _ in 1..scale.setup_repeats {
        setup = seeded_setup(opts);
        setup_s.push(setup.setup_s);
    }
    let band = fom_band(opts.workload, opts.seed, scale);
    warm_up(&setup);
    let mut ledger = Ledger::default();
    let (mut design_s, mut postfab_s) = (Vec::new(), Vec::new());
    let mut first_theta: Option<Vec<f64>> = None;
    let mut foms: Vec<f64> = Vec::new();
    let mut work = String::new();
    let start = Instant::now();
    loop {
        let (ds, run) = timed_design(&setup, &setup.config, &setup.theta0);
        design_s.push(ds);
        let Some(run) = ledger.design("design", scale.iterations, &run, first_theta.as_deref())
        else {
            ledger.post_fab(scale.samples, Err("no design to evaluate".into()), band);
            break;
        };
        if first_theta.is_none() {
            work = format!(
                "factorizations={} bicgstab_iters_mean={:?}",
                run.factorizations,
                run.trajectory
                    .iter()
                    .map(|t| t.mean_bicgstab_iterations)
                    .collect::<Vec<_>>()
            );
            first_theta = Some(run.theta.clone());
        }
        let fits = |stage_s: f64| start.elapsed().as_secs_f64() + stage_s <= opts.seconds;
        if postfab_s.len() < MIN_POST_FABS || fits(median(&postfab_s)) {
            let (ps, report) = timed_post_fab(&setup, &run.mask, scale.samples, opts.seed);
            postfab_s.push(ps);
            match ledger.post_fab(scale.samples, report.map(|r| r.samples), band) {
                Some(f) => foms = f,
                None => break,
            }
        }
        if design_s.len() >= MIN_DESIGNS && postfab_s.len() >= MIN_POST_FABS && !fits(ds) {
            break;
        }
    }
    let fom_mean = if foms.is_empty() {
        0.0
    } else {
        foms.iter().sum::<f64>() / foms.len() as f64
    };
    let values = [
        median(&setup_s),
        median(&design_s),
        if postfab_s.is_empty() {
            0.0
        } else {
            median(&postfab_s)
        },
        fom_mean,
        foms.iter().copied().fold(f64::INFINITY, f64::min),
        peak_rss_mb(),
        1.0 - ledger.failed as f64 / ledger.attempted.max(1) as f64,
    ];
    let detail = vec![
        format!("repeats setup_s={setup_s:?} design_s={design_s:?} postfab_s={postfab_s:?}"),
        format!("work {work}"),
    ];
    finish(ledger, &END_TO_END, &values, detail)
}

/// Assembles the report; a non-finite value is reported as 0 and marks
/// the run incorrect.
fn finish(
    mut ledger: Ledger,
    names: &[(&'static str, &'static str)],
    values: &[f64],
    detail: Vec<String>,
) -> Report {
    let metrics = names
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| {
            if !v.is_finite() {
                ledger.notes.push(format!("{name} is not finite ({v})"));
            }
            Metric {
                name,
                value: if v.is_finite() { v } else { 0.0 },
                unit,
            }
        })
        .collect::<Vec<_>>();
    let correct = ledger.failed == 0 && values.iter().all(|v| v.is_finite());
    Report {
        correct,
        attempted: ledger.attempted.max(1),
        failed: ledger.failed,
        metrics,
        notes: ledger.notes,
        detail,
    }
}

/// The traced run: the measured design once more (untraced), the
/// 1-lane and leave-one-out ablations, the traced replay of the design
/// and of the post-fab evaluation, and the kernel probes.
fn traced(opts: &Options) -> Report {
    let scale = opts.scale;
    let setup = seeded_setup(opts);
    let config = &setup.config;
    let n = scale.iterations;
    let mut ledger = Ledger::default();

    warm_up(&setup);
    let (design_s, run) = timed_design(&setup, config, &setup.theta0);
    let run = ledger.design("design", n, &run, None).cloned();
    let reference = run.as_ref().map(|r| r.theta.as_slice());

    // The plain single-lane baseline; its θ must match bit for bit.
    let one_lane = RunnerConfig {
        threads: 1,
        ..config.clone()
    };
    let (lane1_s, lane1) = timed_design(&setup, &one_lane, &setup.theta0);
    ledger.design("1-lane design", n, &lane1, reference);

    // Leave-one-out: the same configuration minus one layer. A layer the
    // workload does not use leaves the configuration unchanged, so its
    // speed-up is 1 by definition and is not re-measured.
    let mut leave_out = |what: &str, without: Option<RunnerConfig>| -> f64 {
        match without {
            Some(cfg) if cfg != *config => {
                let (s, r) = timed_design(&setup, &cfg, &setup.theta0);
                ledger.design(what, n, &r, None);
                s / design_s
            }
            _ => 1.0,
        }
    };
    let iterative = !matches!(config.solver, SolverStrategy::Direct);
    let recycle_speedup = leave_out(
        "recycle-off design",
        iterative.then(|| RunnerConfig {
            recycle: RecycleConfig::default(),
            ..config.clone()
        }),
    );
    let subspace_speedup = leave_out(
        "subspace-off design",
        iterative.then(|| RunnerConfig {
            subspace: SubspaceConfig::default(),
            ..config.clone()
        }),
    );
    let cells = setup.compiled.problem().grid.n();
    let multigrid_speedup = leave_out(
        "direct design",
        config.solver.uses_multigrid(cells).then(|| RunnerConfig {
            solver: SolverStrategy::Direct,
            ..config.clone()
        }),
    );

    // Traced replay of the measured configuration.
    let mut tr = Tracer::new(Instant::now());
    let replay = guarded(|| replay::design(&setup, config, &setup.theta0, &mut tr));
    ledger.attempted += n;
    let counts = match &replay {
        Ok(rep) => {
            let bad = rep.objectives.iter().filter(|o| !o.is_finite()).count();
            if bad > 0 {
                ledger.fail(bad, format!("replay: {bad} non-finite objectives"));
            }
            if let Some(theta) = reference {
                ledger.notes.push(format!(
                    "replay_matches_run: {}",
                    bit_identical(theta, &rep.theta)
                ));
            }
            rep.counts.clone()
        }
        Err(msg) => {
            ledger.fail(n, format!("replay: panicked: {msg}"));
            replay::SolveCounts::default()
        }
    };
    let design_spans = tr.spans().to_vec();

    // Traced post-fab replay of the run's mask (the same draws as
    // `evaluate_post_fab`), checked against the reference band.
    let mut pf = Tracer::new(tr.epoch());
    let band = fom_band(opts.workload, opts.seed, scale);
    let foms = match &run {
        Some(run) => guarded(|| {
            replay::post_fab(
                &setup,
                &VariationSpace::default(),
                &run.mask,
                scale.samples,
                mc_seed(opts.seed),
                &mut pf,
            )
        }),
        None => Err("no design to evaluate".into()),
    };
    ledger.post_fab(scale.samples, foms, band);

    let self_ns = trace::self_times_ns(&design_spans);
    let span_median = |names: &[&str]| -> Option<f64> {
        let v: Vec<f64> = names
            .iter()
            .flat_map(|n| trace::self_ms(&design_spans, &self_ns, n))
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let median_or_zero = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    let replay_iter_s = median_or_zero(trace::duration_ms(&design_spans, trace::ITERATION)) * 1e-3;

    let (factor_ms, gflops) = probe_banded(&setup);
    let product_solve_ms = span_median(&["compiled.evaluate_corner_product"])
        .unwrap_or_else(|| probe_product_solve(&setup, opts.lanes));
    let corner_solve_ms = span_median(&[
        "compiled.evaluate_eps_omega",
        "compiled.evaluate_eps_scratch",
        "compiled.evaluate_eps_corner",
    ])
    .unwrap_or(0.0);
    let plan_ms = span_median(&["subspace.plan"]).unwrap_or_else(|| probe_plan(&setup));
    let sample_ms = median_or_zero(trace::duration_ms(pf.spans(), "eval.sample"));

    let (runner_fact, runner_bicg, active_frac, refresh_iters) = match &run {
        Some(r) => {
            let iters = r.trajectory.len().max(1) as f64;
            let records: Vec<_> = r.trajectory.iter().filter_map(|t| t.active_set).collect();
            let (active, product) = records.iter().fold((0usize, 0usize), |(a, p), s| {
                (a + s.active_columns, p + s.product_columns)
            });
            (
                r.factorizations as f64 / iters,
                r.trajectory
                    .iter()
                    .map(|t| t.mean_bicgstab_iterations)
                    .sum::<f64>()
                    / iters,
                if records.is_empty() {
                    1.0
                } else {
                    active as f64 / product as f64
                },
                if records.is_empty() {
                    r.trajectory.len() as f64
                } else {
                    records.iter().filter(|s| s.refresh).count() as f64
                },
            )
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    let per_iter = |x: usize| x as f64 / n.max(1) as f64;
    let values = [
        runner_fact,
        runner_bicg,
        active_frac,
        refresh_iters,
        factor_ms,
        gflops,
        if counts.iterative_solves == 0 {
            0.0
        } else {
            counts.bicgstab_iterations as f64 / counts.iterative_solves as f64
        },
        counts.max_iterations as f64,
        counts.max_residual,
        per_iter(counts.solves),
        per_iter(counts.factorizations),
        if counts.iterative == 0 {
            0.0
        } else {
            counts.fallbacks as f64 / counts.iterative as f64
        },
        product_solve_ms,
        corner_solve_ms,
        span_median(&["fabchain.forward"]).unwrap_or(0.0),
        span_median(&["fabchain.vjp"]).unwrap_or(0.0),
        span_median(&["fabchain.assemble"]).unwrap_or(0.0),
        span_median(&["param.forward"]).unwrap_or(0.0),
        span_median(&["param.vjp"]).unwrap_or(0.0),
        span_median(&["optimizer.step"]).unwrap_or(0.0),
        plan_ms,
        setup.compile_s * 1e3,
        sample_ms,
        probe_dispatch_us(opts.lanes),
        recycle_speedup,
        subspace_speedup,
        multigrid_speedup,
        lane1_s / design_s,
        trace::coverage(&design_spans),
        replay_iter_s / (design_s / n as f64),
    ];
    let offset = design_spans.len();
    let mut all_spans = design_spans;
    all_spans.extend(pf.spans().iter().cloned().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
    finish(ledger, &PER_LAYER, &values, span_table(&all_spans))
}

/// One line per span name: calls, median and tail self time.
fn span_table(spans: &[trace::Span]) -> Vec<String> {
    let self_ns = trace::self_times_ns(spans);
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let st = trace::stat(&trace::self_ms(spans, &self_ns, name));
            let tail = st
                .tail
                .map_or("-".to_owned(), |(p, v)| format!("p{p}={v:.4}ms"));
            format!(
                "span {name}: calls={} median_self={:.4}ms tail={tail}",
                st.count, st.median
            )
        })
        .collect()
}

/// The seeded design's nominal permittivity at the workload's grid.
fn nominal_eps(setup: &Setup) -> Array2<f64> {
    let problem = setup.compiled.problem();
    let rho = setup.param.forward(&setup.theta0);
    assemble_eps(
        &problem.background_solid,
        problem.design_origin,
        &rho,
        T_NOMINAL,
    )
}

/// `SimWorkspace::prepare_corner(Direct)` at the workload's grid and
/// centre ω: median factor time over three factorisations after a warm-up,
/// and the rate computed from the banded LU's operation count (bandwidth
/// `nx` both ways: `8·n·kl·(kl + ku)` real flops).
fn probe_banded(setup: &Setup) -> (f64, f64) {
    let problem = setup.compiled.problem();
    let eps = nominal_eps(setup);
    let mut ws = SimWorkspace::new();
    let mut factor = || {
        let start = Instant::now();
        let ok = ws
            .prepare_corner(
                problem.grid,
                problem.omega,
                &eps,
                SolverStrategy::Direct,
                None,
            )
            .is_ok();
        (start.elapsed().as_secs_f64() * 1e3, ok)
    };
    factor();
    let ms: Vec<f64> = (0..3).map(|_| factor().0).collect();
    let factor_ms = median(&ms);
    let (n, b) = (problem.grid.n() as f64, problem.grid.nx as f64);
    let flops = 8.0 * n * b * (2.0 * b);
    (factor_ms, flops / (factor_ms * 1e-3) / 1e9)
}

/// One `evaluate_corner_product` of the workload's first-iteration
/// corner product under the preconditioned-iterative strategy (for a
/// workload whose design never calls it): median of three fresh epochs
/// after a warm-up.
fn probe_product_solve(setup: &Setup, lanes: usize) -> f64 {
    let problem = setup.compiled.problem();
    let config = &setup.config;
    let lambda_c = 2.0 * std::f64::consts::PI / problem.omega;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let corners = setup
        .space
        .spectral_corners(config.sampling, lambda_c, &mut rng);
    let rho = setup.param.forward(&setup.theta0);
    let etch = EtchProjection::new(config.beta_start);
    let epss: Vec<Array2<f64>> = corners
        .iter()
        .map(|c| {
            let fwd = setup.chain.forward_with_etch(&rho, c, false, etch);
            assemble_eps(
                &problem.background_solid,
                problem.design_origin,
                &fwd.rho_fab,
                c.temperature,
            )
        })
        .collect();
    let nominal = corners
        .iter()
        .position(|c| !c.is_varied())
        .expect("nominal corner");
    let omega_idx: Vec<usize> = corners.iter().map(|c| c.omega_idx).collect();
    let is_nominal: Vec<bool> = corners.iter().map(|c| !c.is_varied()).collect();
    let fab_idx: Vec<usize> = (0..corners.len()).collect();
    let force_direct = vec![false; corners.len()];
    let objective = &problem.objective;
    let mut scratch = EvalScratch::new();
    let mut solve = |epoch: u64| {
        let set = CornerProductSolve {
            strategy: SolverStrategy::preconditioned_iterative(),
            nominal_eps: &epss[nominal],
            epoch,
            omega_idx: &omega_idx,
            is_nominal: &is_nominal,
            force_direct: &force_direct,
            threads: lanes,
            skip_zero_weight_adjoints: Some((config.spectral_agg, &fab_idx)),
            recycle: None,
        };
        let start = Instant::now();
        let out =
            setup
                .compiled
                .evaluate_corner_product(&epss, true, objective, &mut scratch, &set);
        std::hint::black_box(out.map(|e| e.len()).unwrap_or(0));
        start.elapsed().as_secs_f64() * 1e3
    };
    solve(0);
    let ms: Vec<f64> = (1..=3).map(&mut solve).collect();
    median(&ms)
}

/// `SubspaceScheduler::plan` over the workload's product, keeping a third
/// of the columns, for a workload whose design does not schedule: median
/// of 200 plans.
fn probe_plan(setup: &Setup) -> f64 {
    let columns = setup.space.product_columns(setup.config.sampling);
    let mut s = SubspaceScheduler::new(
        columns,
        SubspaceConfig::with_active_columns((columns / 3).max(1)),
    );
    for c in 0..columns {
        s.record(c, 0.5 + 0.01 * c as f64, 1.0 / columns as f64);
    }
    let mut forced = vec![false; columns];
    forced[0] = true;
    let ms: Vec<f64> = (0..200)
        .map(|i| {
            let start = Instant::now();
            std::hint::black_box(s.plan(1 + i % 7, &forced));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// `WorkPool::run` of `lanes` empty parts on the process-wide pool:
/// median over 2000 dispatches, µs.
fn probe_dispatch_us(lanes: usize) -> f64 {
    let pool = boson_num::pool::global();
    let us: Vec<f64> = (0..2000)
        .map(|_| {
            let start = Instant::now();
            pool.run(lanes, lanes, &|_, part| {
                std::hint::black_box(part);
            });
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&us)
}
