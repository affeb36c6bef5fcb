//! The three design workloads: problem, configuration and seeded inputs.

use boson_core::baselines::{levelset_param, standard_chain, BaseRunConfig, MethodSpec};
use boson_core::compiled::{CompiledProblem, RecycleConfig};
use boson_core::fabchain::FabChain;
use boson_core::objective::SpectralAggregation;
use boson_core::optimizer::AdamConfig;
use boson_core::problem::{bending, DeviceProblem};
use boson_core::runner::{InverseDesigner, RunnerConfig};
use boson_core::schedule::RelaxationSchedule;
use boson_core::subspace::SubspaceConfig;
use boson_fab::{SamplingStrategy, SpectralAxis, VariationSpace};
use boson_fdfd::grid::SimGrid;
use boson_fdfd::port::Port;
use boson_fdfd::sim::SolverStrategy;
use boson_num::Array2;
use boson_param::LevelSetParam;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Half-width of the broadband workload's spectral axis (±20 nm).
const HALF_SPAN: f64 = 0.02;
/// Wavelengths of the broadband workload.
const WAVELENGTHS: usize = 3;
/// Active (corner, ω) columns of the broadband subspace schedule.
const ACTIVE_COLUMNS: usize = 27;
/// Half-width of the seeded offset added to the seeded-geometry θ0, in
/// µm of level-set value (one tenth of an Adam step at the default rate).
const THETA_JITTER: f64 = 0.002;

/// One seeded design workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper-reproduction path: `MethodSpec::boson1` on the 80² bend,
    /// direct per-corner solves fanned out on the corner pool.
    BendPaper,
    /// Every layer on: K = 3 wavelengths × 27 corners through the fused
    /// preconditioned batch, subspace scheduling and recycling.
    BendBroadband,
    /// The bend at twice the resolution (160²), where the iterative
    /// strategy selects the multigrid preconditioner.
    BendFineMg,
}

/// Iteration, sample and repeat counts of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Design iterations per design run.
    pub iterations: usize,
    /// Monte-Carlo post-fab samples per evaluation.
    pub samples: usize,
    /// Set-ups per end-to-end run (the median is reported).
    pub setup_repeats: usize,
}

impl Scale {
    /// The smallest run that still touches every stage (self-test).
    pub fn tiny() -> Self {
        Self {
            iterations: 1,
            samples: 1,
            setup_repeats: 1,
        }
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BendPaper,
        Workload::BendBroadband,
        Workload::BendFineMg,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BendPaper => "bend_paper",
            Workload::BendBroadband => "bend_broadband",
            Workload::BendFineMg => "bend_fine_mg",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's counts for this workload.
    pub fn scale(self) -> Scale {
        match self {
            Workload::BendPaper => Scale {
                iterations: 6,
                samples: 16,
                setup_repeats: 7,
            },
            Workload::BendBroadband => Scale {
                iterations: 2,
                samples: 16,
                setup_repeats: 7,
            },
            Workload::BendFineMg => Scale {
                iterations: 1,
                samples: 3,
                setup_repeats: 3,
            },
        }
    }

    /// Compiles the workload's problem (mode solves and per-ω
    /// calibration).
    pub fn compile(self) -> CompiledProblem {
        match self {
            Workload::BendPaper => CompiledProblem::compile(bending()),
            Workload::BendBroadband => {
                CompiledProblem::compile_spectral(bending(), spectral_axis())
            }
            Workload::BendFineMg => CompiledProblem::compile(fine_bending()),
        }
        .expect("benchmark problem compiles")
    }

    /// The variation space the design optimises over.
    pub fn space(self) -> VariationSpace {
        match self {
            Workload::BendBroadband => VariationSpace {
                spectral: spectral_axis(),
                ..VariationSpace::default()
            },
            _ => VariationSpace::default(),
        }
    }

    /// The runner configuration at `iterations`, workload `seed` and
    /// `lanes` worker lanes.
    pub fn config(self, iterations: usize, seed: u64, lanes: usize) -> RunnerConfig {
        match self {
            Workload::BendPaper => paper_config(iterations, seed, lanes, SolverStrategy::Direct),
            Workload::BendBroadband => RunnerConfig {
                iterations,
                sampling: SamplingStrategy::CornerSweep,
                solver: SolverStrategy::preconditioned_iterative(),
                spectral_agg: SpectralAggregation::WorstCase,
                subspace: SubspaceConfig::with_active_columns(ACTIVE_COLUMNS),
                recycle: RecycleConfig::enabled(),
                seed,
                threads: lanes,
                ..RunnerConfig::default()
            },
            Workload::BendFineMg => paper_config(
                iterations,
                seed,
                lanes,
                SolverStrategy::preconditioned_iterative(),
            ),
        }
    }
}

/// The broadband workload's spectral axis.
fn spectral_axis() -> SpectralAxis {
    SpectralAxis::around(HALF_SPAN, WAVELENGTHS)
}

/// The configuration `run_method(…, &MethodSpec::boson1(iterations), …)`
/// builds, with the benchmark's seed, lanes and solver.
fn paper_config(
    iterations: usize,
    seed: u64,
    lanes: usize,
    solver: SolverStrategy,
) -> RunnerConfig {
    let spec = MethodSpec::boson1(iterations);
    RunnerConfig {
        iterations,
        adam: AdamConfig {
            lr: BaseRunConfig::default().lr * spec.lr_scale,
            ..AdamConfig::default()
        },
        sampling: spec.sampling,
        relaxation: RelaxationSchedule::over(spec.relax_epochs),
        beta_start: 10.0,
        beta_end: 40.0,
        dense_objectives: spec.dense_objectives,
        fab_aware: spec.fab_aware,
        init: spec.init,
        seed,
        threads: lanes,
        solver,
        spectral_agg: SpectralAggregation::Mean,
        subspace: SubspaceConfig::default(),
        recycle: RecycleConfig::default(),
    }
}

/// The Monte-Carlo post-fab seed for workload seed `seed`.
pub fn mc_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x4D43
}

/// The bend of [`bending`] at twice the resolution: 160², 0.025 µm
/// pitch, every cell index doubled, PML 20 cells. The seed geometry is in
/// µm and carries over unchanged.
pub fn fine_bending() -> DeviceProblem {
    const F: usize = 2;
    let coarse = bending();
    let (ny, nx) = (coarse.grid.ny * F, coarse.grid.nx * F);
    let solid = &coarse.background_solid;
    DeviceProblem {
        name: "bending_fine".into(),
        grid: SimGrid::new(nx, ny, coarse.grid.dx / F as f64, coarse.grid.npml * F),
        background_solid: Array2::from_fn(ny, nx, |r, c| solid[(r / F, c / F)]),
        design_origin: (coarse.design_origin.0 * F, coarse.design_origin.1 * F),
        design_shape: (coarse.design_shape.0 * F, coarse.design_shape.1 * F),
        ports: coarse
            .ports
            .iter()
            .map(|p| Port {
                plane: p.plane * F,
                t_lo: p.t_lo * F,
                t_hi: p.t_hi * F,
                ..p.clone()
            })
            .collect(),
        ..coarse
    }
}

/// Everything set-up builds for one workload run.
pub struct Setup {
    /// The compiled problem.
    pub compiled: CompiledProblem,
    /// The fabrication chain.
    pub chain: FabChain,
    /// The level-set parameterisation.
    pub param: LevelSetParam,
    /// The design's variation space.
    pub space: VariationSpace,
    /// The runner configuration of the measured design run.
    pub config: RunnerConfig,
    /// The seeded initial latent vector.
    pub theta0: Vec<f64>,
    /// Wall time of [`Workload::compile`].
    pub compile_s: f64,
    /// Wall time of the whole set-up.
    pub setup_s: f64,
}

impl Setup {
    /// Compiles the workload and builds its chain, parameterisation,
    /// configuration, designer and seeded θ0, timing the whole.
    pub fn new(workload: Workload, iterations: usize, seed: u64, lanes: usize) -> Self {
        let start = Instant::now();
        let compiled = workload.compile();
        let compile_s = start.elapsed().as_secs_f64();
        let chain = standard_chain(compiled.problem());
        let param = levelset_param(compiled.problem(), false);
        let mut setup = Self {
            compiled,
            chain,
            param,
            space: workload.space(),
            config: workload.config(iterations, seed, lanes),
            theta0: Vec::new(),
            compile_s,
            setup_s: 0.0,
        };
        let mut theta0 = {
            let designer = setup.designer(setup.config.clone());
            designer.initial_theta(&mut StdRng::seed_from_u64(seed))
        };
        let mut jitter = StdRng::seed_from_u64(seed ^ 0x7E7A_0000);
        for t in &mut theta0 {
            *t += jitter.gen_range(-THETA_JITTER..THETA_JITTER);
        }
        setup.theta0 = theta0;
        setup.setup_s = start.elapsed().as_secs_f64();
        setup
    }

    /// A fresh designer (fresh adaptive corner policy) for `config`.
    pub fn designer(&self, config: RunnerConfig) -> InverseDesigner<'_, LevelSetParam> {
        InverseDesigner::new(
            &self.compiled,
            &self.param,
            self.chain.clone(),
            self.space.clone(),
            config,
        )
    }
}
