//! The four workloads: set-up, one timed operation, the check of its
//! output, and a traced operation that times each layer from outside.

use crate::check::{
    check_cell, close, CellFault, CellReference, Fig1, Fig1Optimum, Fig2, Net, DEEP_REL_TOL,
    ENFORCED_REL_TOL, FORMULA_REL_TOL, MONOLITHIC_REL_TOL, SIM_AF_REL_TOL,
};
use bench::RunManifest;
use rtsdf::apps::{deepchain, logalytics};
use rtsdf::core::comparison::{
    sweep_parallel, sweep_topology_parallel_live, SweepConfig, SweepResult,
};
use rtsdf::core::{
    EnforcedDagProblem, EnforcedWaitsProblem, MonolithicDagProblem, MonolithicProblem,
    MonolithicSchedule, SolveMethod, WaitSchedule,
};
use rtsdf::model::{PipelineSpec, RtParams, Topology};
use rtsdf::sim::{
    run_seeds_enforced, run_seeds_monolithic, simulate_enforced, simulate_monolithic,
    MultiSeedReport, SimConfig,
};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["fig3-sweep", "dag-sweep", "deep-solve", "sim-seeds"];

/// Grid of the two sweeps: the paper's Fig. 3 axes at 64 × 64.
pub const GRID: (usize, usize) = (64, 64);
/// Seed of the logalytics topology (the one `--workload logalytics` uses).
pub const LOGALYTICS_SEED: u64 = 7;
/// Stages of the deep chain.
pub const DEEP_STAGES: usize = 1000;
/// Seeds `0..SIM_SEEDS` simulated per `sim-seeds` operation.
pub const SIM_SEEDS: u64 = 32;
/// `sim-seeds` operating point and backlog factors.
pub const SIM_POINT: (f64, f64) = (10.0, 1e5);

/// What one timed operation produced.
pub enum Output {
    /// A sweep and, for `fig3-sweep`, the size of its manifest.
    Sweep(SweepResult, usize),
    /// A deep-chain schedule.
    Deep(Box<WaitSchedule>),
    /// The enforced and monolithic seed batches.
    Sim(MultiSeedReport, MultiSeedReport),
}

/// The check of one operation's output.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Violations nobody expects: the benchmark reports `correct: false`.
    pub unexpected: Vec<String>,
    /// Failures explained by a known fault of the program.
    pub known_fault: Option<String>,
    /// Cells the check found wrong (sweeps only).
    pub wrong_cells: usize,
}

impl Verdict {
    /// Whether the operation counts as failed.
    pub fn failed(&self) -> bool {
        !self.unexpected.is_empty() || self.known_fault.is_some()
    }
}

/// One per-layer measurement: name and value (units live in
/// `BENCHMARK.json`'s `per_layer` list).
pub type Layer = (&'static str, f64);

/// A workload after set-up.
pub trait Workload {
    /// Compute the independent references (once, outside all timing).
    fn prepare_reference(&mut self, threads: usize, seed: u64);
    /// One line describing the references.
    fn reference_summary(&self) -> String;
    /// One timed operation.
    fn op(&self) -> Output;
    /// Check an operation's output against the references.
    fn check(&self, out: &Output) -> Verdict;
    /// One operation with each layer timed from outside, returning the
    /// layer measurements it makes.
    fn traced_op(&self, threads: usize) -> Vec<Layer>;
}

/// Build the inputs of `name` and warm up.
pub fn setup(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fig3-sweep" => Box::new(Fig3Sweep::setup()),
        "dag-sweep" => Box::new(DagSweep::setup()),
        "deep-solve" => Box::new(DeepSolve::setup()),
        "sim-seeds" => Box::new(SimSeeds::setup()),
        _ => return None,
    })
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Model inputs of a chain, as the checker sees them.
pub fn chain_net(p: &PipelineSpec) -> Net {
    let t: Vec<f64> = p.nodes().iter().map(|n| n.service_time).collect();
    let g: Vec<f64> = p.nodes().iter().map(|n| n.mean_gain()).collect();
    Net::chain(p.vector_width() as f64, t, &g)
}

/// Model inputs of a DAG, as the checker sees them.
pub fn topology_net(topo: &Topology) -> Net {
    Net {
        v: topo.vector_width() as f64,
        t: topo.nodes().iter().map(|n| n.service_time).collect(),
        edges: topo
            .edges()
            .iter()
            .map(|e| (e.src, e.dst, e.gain.mean(), e.weight))
            .collect(),
    }
}

/// Fig. 1 period/formula checks of one enforced schedule.
fn check_schedule(net: &Net, fig1: &Fig1, s: &WaitSchedule) -> Result<(), String> {
    fig1.check_periods(&s.periods, &net.t)?;
    let n = net.len() as f64;
    let af: f64 = net
        .t
        .iter()
        .zip(&s.periods)
        .map(|(t, x)| t / x)
        .sum::<f64>()
        / n;
    if !close(s.active_fraction, af, FORMULA_REL_TOL) {
        return Err(format!(
            "reported active fraction {} but (1/N)·Σt/x = {af}",
            s.active_fraction
        ));
    }
    Ok(())
}

/// Fig. 2 checks of one monolithic schedule: its block size meets both
/// constraints and its value is the checker's value at that size.
fn check_block(fig2: &Fig2, s: &MonolithicSchedule, tau0: f64, d: f64) -> Result<(), String> {
    match fig2.value(s.block_size, tau0, d) {
        None => Err(format!("block size {} violates Fig. 2", s.block_size)),
        Some(v) if !close(v, s.active_fraction, MONOLITHIC_REL_TOL) => Err(format!(
            "block size {}: reported {} but T(M)/(M·tau0) = {v}",
            s.block_size, s.active_fraction
        )),
        Some(_) => Ok(()),
    }
}

// ---------------------------------------------------------------------
// The two sweeps share their reference and check.
// ---------------------------------------------------------------------

/// Inputs and references common to both sweeps.
struct Grid {
    net: Net,
    config: SweepConfig,
    tau0s: Vec<f64>,
    ds: Vec<f64>,
    /// Chain rule for enforced values (exact) or DAG rule (floor).
    exact_enforced: bool,
    cells: Vec<CellReference>,
    /// Seed-chosen cells re-solved through the public per-cell solves.
    samples: Vec<Sample>,
    sample_errors: Vec<String>,
}

/// A re-solved cell: index, enforced value, monolithic value.
type Sample = (usize, Option<f64>, Option<f64>);

/// Cells re-solved one by one for schedule-level checks per process.
const SAMPLED_CELLS: usize = 16;

impl Grid {
    fn new(net: Net, config: SweepConfig, exact_enforced: bool) -> Grid {
        let (tau0s, ds) = RtParams::paper_grid(GRID.0, GRID.1);
        Grid {
            net,
            config,
            tau0s,
            ds,
            exact_enforced,
            cells: Vec::new(),
            samples: Vec::new(),
            sample_errors: Vec::new(),
        }
    }

    fn point(&self, idx: usize) -> (f64, f64) {
        (
            self.tau0s[idx / self.ds.len()],
            self.ds[idx % self.ds.len()],
        )
    }

    /// Reference for every cell, striped over `threads` workers (rows
    /// differ widely in scan length).
    fn compute_cells(&mut self, threads: usize) {
        let total = self.tau0s.len() * self.ds.len();
        let this = &*self;
        let stripes: Vec<Vec<(usize, CellReference)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    scope.spawn(move || {
                        (w..total)
                            .step_by(threads)
                            .map(|idx| {
                                let (tau0, d) = this.point(idx);
                                let c = &this.config;
                                let r = CellReference::compute(
                                    &this.net,
                                    &c.enforced_b,
                                    c.monolithic_b,
                                    c.monolithic_s,
                                    tau0,
                                    d,
                                );
                                (idx, r)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference worker"))
                .collect()
        });
        let mut cells: Vec<(usize, CellReference)> = stripes.into_iter().flatten().collect();
        cells.sort_by_key(|&(idx, _)| idx);
        self.cells = cells.into_iter().map(|(_, r)| r).collect();
    }

    fn summary(&self) -> String {
        let count = |f: &dyn Fn(&CellReference) -> bool| self.cells.iter().filter(|c| f(c)).count();
        format!(
            "reference: cells={} enforced_feasible={} enforced_without_interior={} \
             monolithic_feasible={} sampled_cells={:?}",
            self.cells.len(),
            count(&|c| c.enforced_feasible),
            count(&|c| c.enforced_feasible && c.enforced.is_none()),
            count(&|c| c.monolithic.is_some()),
            self.samples.iter().map(|s| s.0).collect::<Vec<_>>(),
        )
    }

    /// Seed-chosen cells (distinct, deterministic in `seed`).
    fn sample_indices(&self, seed: u64) -> Vec<usize> {
        let total = (self.tau0s.len() * self.ds.len()) as u64;
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut picked = Vec::new();
        while picked.len() < SAMPLED_CELLS {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            let idx = (x % total) as usize;
            if !picked.contains(&idx) {
                picked.push(idx);
            }
        }
        picked
    }

    /// Re-solve the seed-chosen cells one at a time through `enforced`
    /// and `monolithic` (the per-cell solves the sweep makes) and check
    /// the schedules they return.
    fn sample(
        &self,
        seed: u64,
        enforced: impl Fn(RtParams) -> Option<WaitSchedule>,
        monolithic: impl Fn(RtParams) -> Option<MonolithicSchedule>,
    ) -> (Vec<Sample>, Vec<String>) {
        let (mut samples, mut errors) = (Vec::new(), Vec::new());
        let cfg = &self.config;
        let fig2 = Fig2::new(&self.net, cfg.monolithic_b, cfg.monolithic_s);
        for idx in self.sample_indices(seed) {
            let (tau0, d) = self.point(idx);
            let params = RtParams::new(tau0, d).expect("grid point");
            let e = enforced(params);
            if let Some(s) = &e {
                let fig1 = Fig1::new(&self.net, tau0, d, &cfg.enforced_b);
                if let Err(err) = check_schedule(&self.net, &fig1, s) {
                    errors.push(format!("cell {idx} enforced: {err}"));
                }
            }
            // A block size must be feasible and valued right, even where
            // the search misses the optimum.
            let m = monolithic(params);
            if let Some(s) = &m {
                if let Err(err) = check_block(&fig2, s, tau0, d) {
                    errors.push(format!("cell {idx} monolithic: {err}"));
                }
            }
            samples.push((
                idx,
                e.map(|s| s.active_fraction),
                m.map(|s| s.active_fraction),
            ));
        }
        (samples, errors)
    }

    /// Call `enforced` and `monolithic` on every cell, one cell at a time,
    /// timing each call from outside.
    fn cell_times(
        &self,
        enforced: impl Fn(RtParams) -> Option<WaitSchedule>,
        monolithic: impl Fn(RtParams) -> Option<MonolithicSchedule>,
    ) -> CellTimes {
        let mut c = CellTimes::default();
        for idx in 0..self.cells.len() {
            let (tau0, d) = self.point(idx);
            let params = RtParams::new(tau0, d).expect("grid point");
            let t0 = Instant::now();
            let e = enforced(params);
            c.enforced_ms += ms(t0);
            if let Some(t) = e.and_then(|s| s.telemetry) {
                c.enforced_iterations += t.iterations as f64;
            }
            let t0 = Instant::now();
            let m = monolithic(params);
            let elapsed = ms(t0);
            c.monolithic_ms += elapsed;
            match m {
                Some(s) => c.monolithic_evals += s.telemetry.map_or(0.0, |t| t.iterations as f64),
                None => c.monolithic_infeasible_ms += elapsed,
            }
        }
        c
    }

    /// Compare every cell against the references, and the sampled cells
    /// against their one-by-one solves (bit-identical: cold sweeps are).
    fn check(&self, r: &SweepResult) -> (Vec<String>, Vec<String>, usize) {
        let mut enforced_faults = Vec::new();
        let mut monolithic_faults = Vec::new();
        let mut wrong = 0;
        if r.cells.len() != self.cells.len() {
            enforced_faults.push(format!(
                "{} cells, expected {}",
                r.cells.len(),
                self.cells.len()
            ));
            return (enforced_faults, monolithic_faults, wrong);
        }
        for (idx, (cell, reference)) in r.cells.iter().zip(&self.cells).enumerate() {
            let (tau0, d) = self.point(idx);
            if cell.tau0 != tau0 || cell.deadline != d {
                enforced_faults.push(format!("cell {idx} is at the wrong operating point"));
                continue;
            }
            let faults = check_cell(
                reference,
                cell.enforced,
                cell.monolithic,
                self.exact_enforced,
            );
            if !faults.is_empty() {
                wrong += 1;
            }
            for f in faults {
                let msg = format!(
                    "{f:?} at tau0={tau0} D={d}: program ({:?}, {:?}) vs reference ({:?}, {:?})",
                    cell.enforced, cell.monolithic, reference.enforced, reference.monolithic
                );
                match f {
                    CellFault::EnforcedFeasibility | CellFault::EnforcedValue => {
                        enforced_faults.push(msg)
                    }
                    CellFault::MonolithicFeasibility | CellFault::MonolithicValue => {
                        monolithic_faults.push(msg)
                    }
                }
            }
        }
        enforced_faults.extend(self.sample_errors.iter().cloned());
        for &(idx, e, m) in &self.samples {
            let cell = &r.cells[idx];
            if cell.enforced != e || cell.monolithic != m {
                enforced_faults.push(format!(
                    "cell {idx}: sweep ({:?}, {:?}) differs from its own solve ({e:?}, {m:?})",
                    cell.enforced, cell.monolithic
                ));
            }
        }
        (enforced_faults, monolithic_faults, wrong)
    }
}

fn summarize(mut faults: Vec<String>) -> Option<String> {
    let n = faults.len();
    faults.truncate(3);
    (n > 0).then(|| format!("{n} fault(s), first: {}", faults.join(" | ")))
}

/// Per-cell sequential layer times of a sweep, measured from outside.
#[derive(Default)]
struct CellTimes {
    enforced_ms: f64,
    enforced_iterations: f64,
    monolithic_ms: f64,
    monolithic_infeasible_ms: f64,
    monolithic_evals: f64,
}

// ---------------------------------------------------------------------
// fig3-sweep
// ---------------------------------------------------------------------

struct Fig3Sweep {
    pipeline: PipelineSpec,
    grid: Grid,
}

impl Fig3Sweep {
    fn setup() -> Self {
        let pipeline = rtsdf::blast::paper_pipeline();
        let grid = Grid::new(chain_net(&pipeline), SweepConfig::paper_blast(), true);
        // Warm-up: one τ0 row through the same sweep entry point.
        let row = sweep_parallel(&pipeline, &grid.tau0s[..1], &grid.ds, &grid.config)
            .expect("paper grid is valid");
        std::hint::black_box(row);
        Fig3Sweep { pipeline, grid }
    }

    fn sweep(&self) -> SweepResult {
        sweep_parallel(
            &self.pipeline,
            &self.grid.tau0s,
            &self.grid.ds,
            &self.grid.config,
        )
        .expect("paper grid is valid")
    }

    fn manifest(&self, r: &SweepResult) -> String {
        RunManifest::new(
            "fig3",
            serde_json::to_value(&self.grid.config).expect("config serializes"),
            serde_json::to_value(r).expect("sweep serializes"),
        )
        .to_json()
    }

    fn enforced(&self, params: RtParams) -> Option<WaitSchedule> {
        let b = self.grid.config.enforced_b.clone();
        EnforcedWaitsProblem::new(&self.pipeline, params, b)
            .solve_with_fallback()
            .ok()
    }

    fn monolithic(&self, params: RtParams) -> Option<MonolithicSchedule> {
        let cfg = &self.grid.config;
        MonolithicProblem::new(&self.pipeline, params, cfg.monolithic_b, cfg.monolithic_s)
            .solve_fast()
            .ok()
    }
}

impl Workload for Fig3Sweep {
    fn prepare_reference(&mut self, threads: usize, seed: u64) {
        self.grid.compute_cells(threads);
        let (samples, errors) =
            self.grid
                .sample(seed, |p| self.enforced(p), |p| self.monolithic(p));
        (self.grid.samples, self.grid.sample_errors) = (samples, errors);
    }

    fn reference_summary(&self) -> String {
        self.grid.summary()
    }

    fn op(&self) -> Output {
        let r = self.sweep();
        let bytes = self.manifest(&r).len();
        Output::Sweep(r, bytes)
    }

    fn check(&self, out: &Output) -> Verdict {
        let Output::Sweep(r, bytes) = out else {
            unreachable!("fig3-sweep produces sweeps")
        };
        let (mut unexpected, monolithic, wrong_cells) = self.grid.check(r);
        unexpected.extend(monolithic);
        if *bytes == 0 {
            unexpected.push("empty manifest".into());
        }
        Verdict {
            unexpected: summarize(unexpected).into_iter().collect(),
            known_fault: None,
            wrong_cells,
        }
    }

    fn traced_op(&self, threads: usize) -> Vec<Layer> {
        let t0 = Instant::now();
        let r = self.sweep();
        let sweep_ms = ms(t0);
        let t0 = Instant::now();
        let bytes = self.manifest(&r).len();
        let manifest_ms = ms(t0);
        let c = self
            .grid
            .cell_times(|p| self.enforced(p), |p| self.monolithic(p));
        vec![
            ("core.monolithic.ms", c.monolithic_ms),
            ("core.monolithic.infeasible_ms", c.monolithic_infeasible_ms),
            ("core.monolithic.evals", c.monolithic_evals),
            ("core.enforced.ms", c.enforced_ms),
            ("core.enforced.iterations", c.enforced_iterations),
            (
                "core.comparison.efficiency",
                (c.enforced_ms + c.monolithic_ms) / (threads as f64 * sweep_ms),
            ),
            ("bench.manifest.ms", manifest_ms),
            ("bench.manifest.bytes", bytes as f64),
        ]
    }
}

// ---------------------------------------------------------------------
// dag-sweep
// ---------------------------------------------------------------------

struct DagSweep {
    topology: Topology,
    grid: Grid,
}

impl DagSweep {
    fn topology() -> Topology {
        logalytics::synthesize(&logalytics::LogalyticsConfig::default(), LOGALYTICS_SEED)
            .expect("logalytics topology builds")
    }

    fn setup() -> Self {
        let topology = Self::topology();
        let config = SweepConfig {
            enforced_b: EnforcedDagProblem::optimistic_backlog(&topology),
            monolithic_b: 1.0,
            monolithic_s: 1.0,
        };
        let grid = Grid::new(topology_net(&topology), config, false);
        let row =
            sweep_topology_parallel_live(&topology, &grid.tau0s[..1], &grid.ds, &grid.config, None)
                .expect("paper grid is valid");
        std::hint::black_box(row);
        DagSweep { topology, grid }
    }

    fn enforced(&self, params: RtParams) -> Option<WaitSchedule> {
        let b = self.grid.config.enforced_b.clone();
        EnforcedDagProblem::new(&self.topology, params, b)
            .solve()
            .ok()
    }

    fn monolithic(&self, params: RtParams) -> Option<MonolithicSchedule> {
        let cfg = &self.grid.config;
        MonolithicDagProblem::new(&self.topology, params, cfg.monolithic_b, cfg.monolithic_s)
            .solve_fast()
            .ok()
    }

    fn sweep(&self) -> SweepResult {
        sweep_topology_parallel_live(
            &self.topology,
            &self.grid.tau0s,
            &self.grid.ds,
            &self.grid.config,
            None,
        )
        .expect("paper grid is valid")
    }
}

impl Workload for DagSweep {
    fn prepare_reference(&mut self, threads: usize, seed: u64) {
        self.grid.compute_cells(threads);
        let (samples, errors) =
            self.grid
                .sample(seed, |p| self.enforced(p), |p| self.monolithic(p));
        (self.grid.samples, self.grid.sample_errors) = (samples, errors);
    }

    fn reference_summary(&self) -> String {
        self.grid.summary()
    }

    fn op(&self) -> Output {
        Output::Sweep(self.sweep(), 0)
    }

    fn check(&self, out: &Output) -> Verdict {
        let Output::Sweep(r, _) = out else {
            unreachable!("dag-sweep produces sweeps")
        };
        let (unexpected, monolithic, wrong_cells) = self.grid.check(r);
        Verdict {
            unexpected: summarize(unexpected).into_iter().collect(),
            known_fault: summarize(monolithic).map(|s| {
                format!(
                    "MonolithicDagProblem::solve_fast misses the Fig. 2 optimum found by an \
                     exhaustive scan: {s}"
                )
            }),
            wrong_cells,
        }
    }

    fn traced_op(&self, threads: usize) -> Vec<Layer> {
        let t0 = Instant::now();
        std::hint::black_box(Self::topology());
        let synth_ms = ms(t0);
        let t0 = Instant::now();
        let r = self.sweep();
        let sweep_ms = ms(t0);
        let verdict = self.check(&Output::Sweep(r, 0));
        let c = self
            .grid
            .cell_times(|p| self.enforced(p), |p| self.monolithic(p));
        vec![
            ("core.dag.enforced_ms", c.enforced_ms),
            ("core.dag.enforced_iterations", c.enforced_iterations),
            ("core.dag.monolithic_ms", c.monolithic_ms),
            ("core.dag.monolithic_evals", c.monolithic_evals),
            (
                "core.dag.monolithic_wrong_cells",
                verdict.wrong_cells as f64,
            ),
            (
                "core.comparison.efficiency",
                (c.enforced_ms + c.monolithic_ms) / (threads as f64 * sweep_ms),
            ),
            ("apps.logalytics.ms", synth_ms),
        ]
    }
}

// ---------------------------------------------------------------------
// deep-solve
// ---------------------------------------------------------------------

struct DeepSolve {
    pipeline: PipelineSpec,
    params: RtParams,
    b: Vec<f64>,
    net: Net,
    optimum: Option<f64>,
}

impl DeepSolve {
    fn chain() -> PipelineSpec {
        deepchain::deep_chain(DEEP_STAGES).expect("deep chain builds")
    }

    fn setup() -> Self {
        let pipeline = Self::chain();
        let b = EnforcedWaitsProblem::optimistic_backlog(&pipeline);
        let xmin = rtsdf::core::minimal_periods(&pipeline);
        let d: f64 = xmin.iter().zip(&b).map(|(x, b)| x * b).sum::<f64>() * 2.0;
        let params = RtParams::new(5.0, d).expect("valid operating point");
        let net = chain_net(&pipeline);
        let this = DeepSolve {
            pipeline,
            params,
            b,
            net,
            optimum: None,
        };
        std::hint::black_box(this.solve());
        this
    }

    fn solve(&self) -> WaitSchedule {
        EnforcedWaitsProblem::new(&self.pipeline, self.params, self.b.clone())
            .solve(SolveMethod::InteriorPoint)
            .expect("the deep chain is schedulable")
    }

    fn fig1(&self) -> Fig1 {
        Fig1::new(&self.net, self.params.tau0, self.params.deadline, &self.b)
    }
}

impl Workload for DeepSolve {
    fn prepare_reference(&mut self, _threads: usize, _seed: u64) {
        self.optimum = self.fig1().solve_chain_pav().map(|(v, _)| v);
    }

    fn reference_summary(&self) -> String {
        format!("reference: optimum={:?}", self.optimum)
    }

    fn op(&self) -> Output {
        Output::Deep(Box::new(self.solve()))
    }

    fn check(&self, out: &Output) -> Verdict {
        let Output::Deep(s) = out else {
            unreachable!("deep-solve produces schedules")
        };
        let mut unexpected = Vec::new();
        if let Err(e) = check_schedule(&self.net, &self.fig1(), s) {
            unexpected.push(e);
        }
        match self.optimum {
            None => unexpected.push("the checker finds the deep chain infeasible".into()),
            Some(opt) if !close(s.active_fraction, opt, DEEP_REL_TOL) => unexpected.push(format!(
                "interior point {} vs checker optimum {opt}",
                s.active_fraction
            )),
            Some(_) => {}
        }
        Verdict {
            unexpected,
            ..Verdict::default()
        }
    }

    fn traced_op(&self, _threads: usize) -> Vec<Layer> {
        let t0 = Instant::now();
        std::hint::black_box(Self::chain());
        let gen_ms = ms(t0);
        let t0 = Instant::now();
        let s = self.solve();
        let solve_ms = ms(t0);
        let t = s.telemetry.expect("interior point reports telemetry");
        let kkt_ms = t.newton_solve_micros.unwrap_or(0.0) / 1e3;
        vec![
            ("solver.convex.ms", solve_ms),
            ("solver.convex.newton_iterations", t.iterations as f64),
            ("solver.linalg.kkt_ms", kkt_ms),
            ("solver.convex.other_ms", solve_ms - kkt_ms),
            ("apps.deepchain.ms", gen_ms),
        ]
    }
}

// ---------------------------------------------------------------------
// sim-seeds
// ---------------------------------------------------------------------

struct SimSeeds {
    pipeline: PipelineSpec,
    params: RtParams,
    config: SweepConfig,
    enforced: WaitSchedule,
    monolithic: MonolithicSchedule,
    /// Fig. 1 active fraction recomputed by the checker from the periods.
    model_af: f64,
    /// Setup-time schedule faults found by the reference phase.
    schedule_errors: Vec<String>,
    /// Seed replayed alone, and its serialized metrics.
    replay: Option<(u64, String, String)>,
}

impl SimSeeds {
    fn enforced(pipeline: &PipelineSpec, params: RtParams, cfg: &SweepConfig) -> WaitSchedule {
        EnforcedWaitsProblem::new(pipeline, params, cfg.enforced_b.clone())
            .solve_with_fallback()
            .expect("the sim-seeds point is enforced-feasible")
    }

    fn monolithic(
        pipeline: &PipelineSpec,
        params: RtParams,
        cfg: &SweepConfig,
    ) -> MonolithicSchedule {
        MonolithicProblem::new(pipeline, params, cfg.monolithic_b, cfg.monolithic_s)
            .solve_fast()
            .expect("the sim-seeds point is monolithic-feasible")
    }

    fn setup() -> Self {
        let pipeline = rtsdf::blast::paper_pipeline();
        let params = RtParams::new(SIM_POINT.0, SIM_POINT.1).expect("valid operating point");
        let config = SweepConfig::paper_blast();
        let enforced = Self::enforced(&pipeline, params, &config);
        let monolithic = Self::monolithic(&pipeline, params, &config);
        // Warm-up: one seed of each event loop.
        let cfg = SimConfig::paper(params.tau0, 0);
        std::hint::black_box(simulate_enforced(
            &pipeline,
            &enforced,
            params.deadline,
            &cfg,
        ));
        std::hint::black_box(simulate_monolithic(
            &pipeline,
            &monolithic,
            params.deadline,
            &cfg,
        ));
        SimSeeds {
            pipeline,
            params,
            config,
            enforced,
            monolithic,
            model_af: f64::NAN,
            schedule_errors: Vec::new(),
            replay: None,
        }
    }

    fn batch(&self) -> (MultiSeedReport, MultiSeedReport) {
        let cfg = SimConfig::paper(self.params.tau0, 0);
        let d = self.params.deadline;
        (
            run_seeds_enforced(&self.pipeline, &self.enforced, d, &cfg, SIM_SEEDS),
            run_seeds_monolithic(&self.pipeline, &self.monolithic, d, &cfg, SIM_SEEDS),
        )
    }
}

fn metrics_json(m: &rtsdf::sim::SimMetrics) -> String {
    serde_json::to_string(m).expect("metrics serialize")
}

impl Workload for SimSeeds {
    fn prepare_reference(&mut self, _threads: usize, seed: u64) {
        let net = chain_net(&self.pipeline);
        let (tau0, d) = (self.params.tau0, self.params.deadline);
        let fig1 = Fig1::new(&net, tau0, d, &self.config.enforced_b);
        let n = net.len() as f64;
        self.model_af = net
            .t
            .iter()
            .zip(&self.enforced.periods)
            .map(|(t, x)| t / x)
            .sum::<f64>()
            / n;
        if let Err(e) = check_schedule(&net, &fig1, &self.enforced) {
            self.schedule_errors.push(format!("enforced schedule: {e}"));
        }
        match fig1.solve_barrier() {
            Some(Fig1Optimum::Value { lower, upper }) => {
                let af = self.enforced.active_fraction;
                if af < lower * (1.0 - ENFORCED_REL_TOL) || af > upper * (1.0 + ENFORCED_REL_TOL) {
                    self.schedule_errors.push(format!(
                        "enforced value {af} outside the checker's optimum [{lower}, {upper}]"
                    ));
                }
            }
            other => self
                .schedule_errors
                .push(format!("checker has no enforced optimum: {other:?}")),
        }
        let fig2 = Fig2::new(&net, self.config.monolithic_b, self.config.monolithic_s);
        if let Err(e) = check_block(&fig2, &self.monolithic, tau0, d) {
            self.schedule_errors
                .push(format!("monolithic schedule: {e}"));
        }
        match fig2.scan(tau0, d) {
            Some((_, best)) if close(best, self.monolithic.active_fraction, MONOLITHIC_REL_TOL) => {
            }
            other => self.schedule_errors.push(format!(
                "monolithic value {} but the scan gives {other:?}",
                self.monolithic.active_fraction
            )),
        }
        let k = seed % SIM_SEEDS;
        let cfg = SimConfig::paper(tau0, k);
        let e = simulate_enforced(&self.pipeline, &self.enforced, d, &cfg);
        let m = simulate_monolithic(&self.pipeline, &self.monolithic, d, &cfg);
        self.replay = Some((k, metrics_json(&e), metrics_json(&m)));
    }

    fn reference_summary(&self) -> String {
        format!(
            "reference: fig1_active_fraction={} block_size={} replayed_seed={:?} schedule_errors={}",
            self.model_af,
            self.monolithic.block_size,
            self.replay.as_ref().map(|r| r.0),
            self.schedule_errors.len()
        )
    }

    fn op(&self) -> Output {
        let (e, m) = self.batch();
        Output::Sim(e, m)
    }

    fn check(&self, out: &Output) -> Verdict {
        let Output::Sim(e, m) = out else {
            unreachable!("sim-seeds produces seed batches")
        };
        let mut unexpected = self.schedule_errors.clone();
        let arrivals = SimConfig::paper(1.0, 0).stream_length as u64;
        for (label, report) in [("enforced", e), ("monolithic", m)] {
            if report.runs.len() as u64 != SIM_SEEDS {
                unexpected.push(format!("{label}: {} runs", report.runs.len()));
            }
            for (seed, r) in report.runs.iter().enumerate() {
                if r.items_arrived != arrivals || r.truncated {
                    unexpected.push(format!(
                        "{label} seed {seed}: {} arrivals, truncated {}",
                        r.items_arrived, r.truncated
                    ));
                }
                if r.items_completed + r.items_dropped + r.items_shed != r.items_arrived {
                    unexpected.push(format!("{label} seed {seed}: items not conserved"));
                }
            }
        }
        for (seed, r) in e.runs.iter().enumerate() {
            if !close(r.active_fraction, self.model_af, SIM_AF_REL_TOL) {
                unexpected.push(format!(
                    "enforced seed {seed}: measured active fraction {} vs Fig. 1 {}",
                    r.active_fraction, self.model_af
                ));
            }
        }
        if let Some((k, ej, mj)) = &self.replay {
            let k = *k as usize;
            let same = |rep: &MultiSeedReport, j: &str| {
                rep.runs.get(k).map(metrics_json).as_deref() == Some(j)
            };
            if !same(e, ej) || !same(m, mj) {
                unexpected.push(format!("seed {k} does not reproduce its metrics"));
            }
        }
        Verdict {
            unexpected: summarize(unexpected).into_iter().collect(),
            ..Verdict::default()
        }
    }

    fn traced_op(&self, threads: usize) -> Vec<Layer> {
        let t0 = Instant::now();
        let e = Self::enforced(&self.pipeline, self.params, &self.config);
        let enforced_solve_ms = ms(t0);
        let t0 = Instant::now();
        let m = Self::monolithic(&self.pipeline, self.params, &self.config);
        let monolithic_solve_ms = ms(t0);
        let iterations = e.telemetry.map_or(0, |t| t.iterations) as f64;
        let evals = m.telemetry.map_or(0, |t| t.iterations) as f64;
        let t0 = Instant::now();
        std::hint::black_box(self.batch());
        let batch_ms = ms(t0);
        let d = self.params.deadline;
        let config = |seed| SimConfig::paper(self.params.tau0, seed);
        let (mut enf_ms, mut enf_items, mut firings) = (0.0, 0u64, 0u64);
        for seed in 0..SIM_SEEDS {
            let t0 = Instant::now();
            let r = simulate_enforced(&self.pipeline, &self.enforced, d, &config(seed));
            enf_ms += ms(t0);
            enf_items += r.items_arrived;
            firings += r.occupancy.iter().map(|o| o.firings()).sum::<u64>();
        }
        let (mut mono_ms, mut mono_items) = (0.0, 0u64);
        for seed in 0..SIM_SEEDS {
            let t0 = Instant::now();
            let r = simulate_monolithic(&self.pipeline, &self.monolithic, d, &config(seed));
            mono_ms += ms(t0);
            mono_items += r.items_arrived;
        }
        vec![
            ("core.enforced.ms", enforced_solve_ms),
            ("core.enforced.iterations", iterations),
            ("core.monolithic.ms", monolithic_solve_ms),
            ("core.monolithic.evals", evals),
            ("pipeline_sim.enforced.ms", enf_ms),
            ("pipeline_sim.monolithic.ms", mono_ms),
            (
                "pipeline_sim.enforced.items_per_s",
                enf_items as f64 / (enf_ms / 1e3),
            ),
            (
                "pipeline_sim.monolithic.items_per_s",
                mono_items as f64 / (mono_ms / 1e3),
            ),
            ("pipeline_sim.enforced.firings", firings as f64),
            (
                "pipeline_sim.runner.efficiency",
                (enf_ms + mono_ms) / (threads as f64 * batch_ms),
            ),
        ]
    }
}
