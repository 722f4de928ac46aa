//! The traced layer replay.
//!
//! For one query the benchmark calls each layer's public entry point in
//! pipeline order and times every call from outside:
//!
//! `load_model` → `csrl::parse` → `preflight` → `lumping::analyze` +
//! `LumpingCertificate::verify` → `dataflow::qualitative_until` → the
//! engine (`ModelChecker` on the quotient, preflight and reduction off).
//!
//! The engine's own sub-layers (`path`, `omega`, `grid`, `steady/solve`,
//! `solver`) and work counters come from the spans and events the program
//! already emits, read through `ProfileRecorder` and `MetricsRecorder`.
//! The lifted answer must be bitwise equal to the untraced one-shot call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mrmc::{CheckOptions, ModelChecker, Reduction};
use mrmc_analysis::{dataflow, lumping};
use mrmc_csrl::{PathFormula, StateFormula};
use mrmc_numerics::omega::{with_omega_cache, OmegaTermCache};
use mrmc_obs::{Event, MetricsRecorder, MultiRecorder, ProfileNode, ProfileRecorder, Recorder};

use crate::inputs::{ModelFiles, Query};
use crate::oracle::Answer;
use crate::util::{ratio, timed, Stopwatch};

/// Sums `time_steps × reward_cells` over the discretization grids run.
#[derive(Debug, Default)]
struct GridCells(AtomicU64);

impl Recorder for GridCells {
    fn record(&self, event: &Event) {
        if let Event::DiscretizationGrid {
            time_steps,
            reward_cells,
            ..
        } = event
        {
            self.0
                .fetch_add(time_steps * reward_cells, Ordering::Relaxed);
        }
    }
}

/// What one traced query measured, layer by layer.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub total_s: f64,
    pub load_s: f64,
    pub load_bytes: u64,
    pub parse_s: f64,
    pub preflight_s: f64,
    pub analyze_s: f64,
    pub verify_s: f64,
    pub lumping_rounds: u64,
    pub states: usize,
    pub engine_states: usize,
    pub reduced: bool,
    pub qualitative_s: Option<f64>,
    pub certain_states: usize,
    pub engine_s: f64,
    pub path_s: f64,
    pub omega_s: f64,
    pub grid_s: f64,
    pub steady_s: f64,
    pub solver_s: f64,
    pub nodes_explored: u64,
    pub paths_generated: u64,
    pub paths_pruned: u64,
    pub omega_requests: u64,
    pub omega_hits: u64,
    pub grid_runs: u64,
    pub cell_steps: u64,
    pub solver_iterations: u64,
}

/// Self time per span name over a profile forest.
fn self_time(nodes: &[ProfileNode], name: &str) -> f64 {
    nodes
        .iter()
        .map(|n| if n.name == name { n.self_s } else { 0.0 } + self_time(&n.children, name))
        .sum()
}

/// `(Φ, Ψ, unbounded)` of an outermost until whose operands are boolean.
fn until_sets(mrm: &mrmc_mrm::Mrm, f: &StateFormula) -> Option<(Vec<bool>, Vec<bool>, bool)> {
    let StateFormula::Prob { path, .. } = f else {
        return None;
    };
    let PathFormula::Until {
        time,
        reward,
        lhs,
        rhs,
    } = path.as_ref()
    else {
        return None;
    };
    Some((
        dataflow::eval_boolean(mrm, lhs)?,
        dataflow::eval_boolean(mrm, rhs)?,
        time.is_upper_unbounded() && reward.is_upper_unbounded(),
    ))
}

/// Replay `query` on `files` layer by layer.
pub fn replay(files: &ModelFiles, query: &Query) -> Result<(Answer, Sample), String> {
    let total = Stopwatch::start();
    let mut s = Sample {
        load_bytes: files.bytes,
        ..Sample::default()
    };
    let [tra, lab, rewr, rewi] = &files.paths;
    let (mrm, secs) = timed(|| mrmc_mrm::io::load_model(tra, lab, rewr, rewi));
    s.load_s = secs;
    let mrm = mrm.map_err(|e| e.to_string())?;
    s.states = mrm.num_states();

    let (formula, secs) = timed(|| mrmc_csrl::parse(&query.formula));
    s.parse_s = secs;
    let formula = formula.map_err(|e| e.to_string())?;

    let options = query.options();
    let (report, secs) = timed(|| mrmc_analysis::preflight(&mrm, &formula, options.engine_hint()));
    s.preflight_s = secs;
    if report.has_errors() {
        return Err(format!("`{}`: preflight errors", query.key));
    }

    let lumping_metrics = Arc::new(MetricsRecorder::new());
    let (analysis, secs) = timed(|| {
        mrmc_obs::with_recorder(lumping_metrics.clone(), || lumping::analyze(&mrm, &formula))
    });
    s.analyze_s = secs;
    s.lumping_rounds = lumping_metrics.take().lumping_rounds;
    let cert = match analysis.certificate {
        Some(cert) => {
            let (verified, secs) = timed(|| cert.verify(&mrm));
            s.verify_s = secs;
            verified.is_ok().then_some(cert)
        }
        None => None,
    };
    s.reduced = cert.is_some();
    let (target, partition) = match cert {
        Some(cert) => (cert.quotient, Some(cert.partition)),
        None => (mrm, None),
    };
    s.engine_states = target.num_states();

    let (qualitative, secs) = timed(|| {
        until_sets(&target, &formula).map(|(phi, psi, unbounded)| {
            dataflow::qualitative_until(&target, &phi, &psi, unbounded)
        })
    });
    if let Some(cert) = qualitative {
        s.qualitative_s = Some(secs);
        s.certain_states = cert.zero_count() + cert.one_count();
    }

    let checker = ModelChecker::new(
        target,
        CheckOptions {
            preflight: false,
            reduction: Reduction::Off,
            ..options
        },
    );
    let profile = Arc::new(ProfileRecorder::new());
    let metrics = Arc::new(MetricsRecorder::new());
    let cells = Arc::new(GridCells::default());
    let recorder = Arc::new(MultiRecorder::new(vec![
        profile.clone(),
        metrics.clone(),
        cells.clone(),
    ]));
    let (outcome, secs) = timed(|| {
        mrmc_obs::with_recorder(recorder, || {
            with_omega_cache(Arc::new(OmegaTermCache::new()), || checker.check(&formula))
        })
    });
    s.engine_s = secs;
    let outcome = outcome.map_err(|e| format!("`{}`: {e}", query.key))?;
    let roots = profile.report().roots;
    s.path_s = self_time(&roots, "path");
    s.omega_s = self_time(&roots, "omega");
    s.grid_s = self_time(&roots, "grid");
    s.steady_s = self_time(&roots, "steady/solve");
    s.solver_s = self_time(&roots, "solver");
    let m = metrics.take();
    s.nodes_explored = m.nodes_explored;
    s.paths_generated = m.paths_generated;
    s.paths_pruned = m.paths_pruned;
    s.omega_requests = m.omega_requests;
    s.omega_hits = m
        .counters
        .get(mrmc_obs::counters::OMEGA_CACHE_HITS)
        .copied()
        .unwrap_or(0);
    s.grid_runs = m.grid_runs;
    s.cell_steps = cells.0.load(Ordering::Relaxed);
    s.solver_iterations = m.solver_iterations;

    let mut answer = Answer::from_outcome(&outcome);
    if let Some(partition) = partition {
        answer = Answer {
            sat: partition.lift(&answer.sat),
            unknown: partition.lift(&answer.unknown),
            probabilities: answer.probabilities.map(|p| partition.lift(&p)),
            error_bounds: answer.error_bounds.map(|e| partition.lift(&e)),
            budget_totals: answer.budget_totals.map(|b| partition.lift(&b)),
        };
    }
    s.total_s = total.secs();
    Ok((answer, s))
}

/// The per-layer metrics of a traced run, as `(name, unit, value)`.
pub fn layer_metrics(samples: &[Sample]) -> Vec<(&'static str, &'static str, f64)> {
    let n = samples.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).sum::<f64>();
    let load_s = sum(&|s| s.load_s);
    let parse_s = sum(&|s| s.parse_s);
    let preflight_s = sum(&|s| s.preflight_s);
    let lumping_s = sum(&|s| s.analyze_s + s.verify_s);
    let qualitative_s = sum(&|s| s.qualitative_s.unwrap_or(0.0));
    let engine_s = sum(&|s| s.engine_s);
    let numerics_s = sum(&|s| s.path_s + s.omega_s + s.grid_s);
    let steady_s = sum(&|s| s.steady_s);
    let solver_s = sum(&|s| s.solver_s);
    let total_s = sum(&|s| s.total_s);
    let unaccounted_s =
        total_s - load_s - parse_s - preflight_s - lumping_s - qualitative_s - engine_s;
    let sliced: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.qualitative_s.is_some())
        .collect();
    let generated = sum(&|s| s.paths_generated as f64);
    let pruned = sum(&|s| s.paths_pruned as f64);
    let omega_requests = sum(&|s| s.omega_requests as f64);
    let omega_hits = sum(&|s| s.omega_hits as f64);
    let share = |x: f64| ratio(x, total_s);
    vec![
        ("mrm.io.load_s", "s", load_s / n),
        (
            "mrm.io.load_mb_per_s",
            "MB/s",
            ratio(sum(&|s| s.load_bytes as f64) / 1e6, load_s),
        ),
        ("csrl.parse_s", "s", parse_s / n),
        ("analysis.preflight_s", "s", preflight_s / n),
        ("analysis.lumping.analyze_s", "s", sum(&|s| s.analyze_s) / n),
        ("analysis.lumping.verify_s", "s", sum(&|s| s.verify_s) / n),
        (
            "analysis.lumping.rounds",
            "count",
            sum(&|s| s.lumping_rounds as f64) / n,
        ),
        (
            "analysis.lumping.kept_ratio",
            "ratio",
            ratio(sum(&|s| s.engine_states as f64), sum(&|s| s.states as f64)),
        ),
        (
            "analysis.lumping.applied_frac",
            "ratio",
            sum(&|s| f64::from(u8::from(s.reduced))) / n,
        ),
        ("analysis.dataflow.qualitative_s", "s", qualitative_s / n),
        (
            "analysis.dataflow.removed_frac",
            "ratio",
            ratio(
                sliced.iter().map(|s| s.certain_states as f64).sum(),
                sliced.iter().map(|s| s.engine_states as f64).sum(),
            ),
        ),
        ("core.engine_s", "s", engine_s / n),
        (
            "numerics.uniformization.path_s",
            "s",
            sum(&|s| s.path_s) / n,
        ),
        (
            "numerics.uniformization.nodes_explored",
            "count",
            sum(&|s| s.nodes_explored as f64) / n,
        ),
        (
            "numerics.uniformization.paths_generated",
            "count",
            generated / n,
        ),
        (
            "numerics.uniformization.prune_ratio",
            "ratio",
            ratio(pruned, generated + pruned),
        ),
        ("numerics.omega_s", "s", sum(&|s| s.omega_s) / n),
        ("numerics.omega.requests", "count", omega_requests / n),
        (
            "numerics.omega.hit_ratio",
            "ratio",
            ratio(omega_hits, omega_hits + omega_requests),
        ),
        (
            "numerics.discretization.grid_s",
            "s",
            sum(&|s| s.grid_s) / n,
        ),
        (
            "numerics.discretization.grid_runs",
            "count",
            sum(&|s| s.grid_runs as f64) / n,
        ),
        (
            "numerics.discretization.cell_steps",
            "count",
            sum(&|s| s.cell_steps as f64) / n,
        ),
        ("ctmc.steady.solve_s", "s", steady_s / n),
        (
            "sparse.solver.iterations",
            "count",
            sum(&|s| s.solver_iterations as f64) / n,
        ),
        ("core.unaccounted_s", "s", unaccounted_s / n),
        ("share.mrm.io", "ratio", share(load_s)),
        ("share.csrl", "ratio", share(parse_s)),
        ("share.analysis.preflight", "ratio", share(preflight_s)),
        ("share.analysis.lumping", "ratio", share(lumping_s)),
        ("share.analysis.dataflow", "ratio", share(qualitative_s)),
        (
            "share.core.engine",
            "ratio",
            share(engine_s - numerics_s - steady_s - solver_s),
        ),
        ("share.numerics", "ratio", share(numerics_s)),
        ("share.ctmc.steady", "ratio", share(steady_s)),
        ("share.sparse.solver", "ratio", share(solver_s)),
        ("share.unaccounted", "ratio", share(unaccounted_s)),
    ]
}
