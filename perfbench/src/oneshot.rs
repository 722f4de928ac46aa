//! The one-shot workloads (`paper-tmr`, `cluster-oneshot`): every query
//! runs the way `mrmc check` runs it — a fresh `CheckSession` loads the
//! four model files and checks one formula.
//!
//! Two client threads each repeat whole passes over the query list, each
//! pass in a seeded order, until `--seconds` have elapsed, so every run
//! measures the same mix of queries. Two clients keep both cores of a
//! two-core host busy; with one, a run's figures would depend on which
//! core the scheduler happened to put it on.

use std::collections::BTreeMap;
use std::path::Path;

use mrmc::CheckSession;

use crate::inputs::{models_of, ModelFiles, ModelId, Query};
use crate::oracle::{Answer, References};
use crate::trace::{self, Sample};
use crate::util::{geomean_positive, median, peak_rss_mb, quantile, Rng, Stopwatch};
use crate::{Report, Tally};

/// Seconds of set-up measured before each pass at least (one set-up
/// at least). Spreading the set-ups over the run samples the host as the
/// queries see it, not just at start-up.
const SETUP_BATCH_S: f64 = 0.02;

/// Concurrent one-shot clients.
const CLIENTS: usize = 2;

/// An untraced run holds at least this many queries, so its p90 has ten
/// samples beyond it.
const MIN_QUERIES: usize = 100;

/// Write the workload's model files and print their digests.
pub fn write_models(
    ids: &[ModelId],
    dir: &Path,
    report: &mut Report,
) -> Result<BTreeMap<ModelId, ModelFiles>, String> {
    let mut files = BTreeMap::new();
    for &id in ids {
        let f = ModelFiles::write(id, dir).map_err(|e| format!("writing {}: {e}", id.name()))?;
        report.notes.push(format!(
            "model {}: {} states, {} bytes, digest {:016x}",
            id.name(),
            f.states,
            f.bytes,
            f.digest
        ));
        files.insert(id, f);
    }
    Ok(files)
}

/// One one-shot query: a fresh session, the four files, one check.
/// Returns the answer and the seconds the call took.
pub fn check_once(files: &ModelFiles, query: &Query) -> (Result<Answer, String>, f64) {
    let clock = Stopwatch::start();
    let session = CheckSession::new();
    let [tra, lab, rewr, rewi] = &files.paths;
    let outcome = session
        .load_files(tra, lab, rewr, rewi)
        .map_err(|e| e.to_string())
        .and_then(|model| {
            session
                .check_str(&model, &query.formula, &query.options())
                .map_err(|e| format!("`{}`: {e}", query.key))
        });
    let secs = clock.secs();
    (outcome.map(|o| Answer::from_outcome(&o)), secs)
}

/// One batch of set-ups: load every model file of the workload into a
/// fresh session, timed, until [`SETUP_BATCH_S`] have passed.
fn setup_batch(files: &BTreeMap<ModelId, ModelFiles>, times: &mut Vec<f64>) -> Result<(), String> {
    let batch = Stopwatch::start();
    loop {
        let clock = Stopwatch::start();
        let session = CheckSession::new();
        for f in files.values() {
            let [tra, lab, rewr, rewi] = &f.paths;
            session
                .load_files(tra, lab, rewr, rewi)
                .map_err(|e| e.to_string())?;
        }
        times.push(clock.secs());
        if batch.secs() >= SETUP_BATCH_S {
            return Ok(());
        }
    }
}

/// Whole passes over `queries`, each in a seeded order, until `seconds`
/// have elapsed and at least `min_queries` ran; returns each pass's
/// seconds.
fn passes(
    queries: &[Query],
    seed: u64,
    seconds: f64,
    min_queries: usize,
    mut before_pass: impl FnMut(),
    mut each: impl FnMut(&Query),
) -> Vec<f64> {
    let clock = Stopwatch::start();
    let mut rng = Rng::new(seed);
    let mut order: Vec<&Query> = queries.iter().collect();
    let mut pass_secs = Vec::new();
    loop {
        before_pass();
        let pass = Stopwatch::start();
        rng.shuffle(&mut order);
        for q in &order {
            each(q);
        }
        pass_secs.push(pass.secs());
        if clock.secs() >= seconds && pass_secs.len() * order.len() >= min_queries {
            return pass_secs;
        }
    }
}

/// One client's queries per second: the median over its passes of each
/// pass's rate.
fn pass_throughput(queries: usize, pass_secs: &[f64]) -> f64 {
    queries as f64 / median(pass_secs)
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    latencies: Vec<f64>,
    bounds: Vec<f64>,
    setups: Vec<f64>,
    pass_secs: Vec<f64>,
    answers: BTreeMap<String, Answer>,
    samples: Vec<Sample>,
}

/// Run `client` on [`CLIENTS`] scoped threads and collect their logs.
fn in_clients(
    client: impl Fn(u64) -> Result<ClientLog, String> + Sync,
) -> Result<Vec<ClientLog>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let client = &client;
                s.spawn(move || client(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Queries per second over all clients: each client's rate is its median
/// pass rate, so a burst of contention on the host moves it less than a
/// mean would.
fn throughput(queries: usize, logs: &[ClientLog]) -> f64 {
    logs.iter()
        .map(|l| pass_throughput(queries, &l.pass_secs))
        .sum()
}

pub fn run(
    queries: &[Query],
    dir: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Report, String> {
    let refs = References::builtin();
    let mut report = Report::default();
    let files = write_models(&models_of(queries), dir, &mut report)?;

    let untraced_seconds = if traced { seconds / 2.0 } else { seconds };
    let min_queries = if traced { 0 } else { MIN_QUERIES / CLIENTS };
    let untraced = in_clients(|c| {
        let mut log = ClientLog::default();
        let mut setups = Vec::new();
        let mut setup_result = Ok(());
        // Set-up is an end-to-end metric, so traced runs skip it.
        let before_pass = || {
            if !traced && setup_result.is_ok() {
                setup_result = setup_batch(&files, &mut setups);
            }
        };
        log.pass_secs = passes(
            queries,
            seed ^ (c << 48),
            untraced_seconds,
            min_queries,
            before_pass,
            |q| {
                let (answer, secs) = check_once(&files[&q.model], q);
                log.latencies.push(secs);
                let result = answer.and_then(|a| {
                    refs.check(q, &a)?;
                    for point in refs.points(q) {
                        log.bounds.push(a.bound_at(point.state));
                    }
                    log.answers.entry(q.key.clone()).or_insert(a);
                    Ok(())
                });
                log.tally.count(result);
            },
        );
        setup_result?;
        log.setups = setups;
        Ok(log)
    })?;
    for log in &untraced {
        report.absorb(&log.tally);
    }
    let pooled = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        untraced.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let latencies = pooled(|l| &l.latencies);
    let untraced_qps = throughput(queries.len(), &untraced);
    report.notes.push(format!(
        "untraced: {} queries ({} per pass) on {CLIENTS} clients, {:.3} s in the timed calls",
        latencies.len(),
        queries.len(),
        latencies.iter().sum::<f64>()
    ));

    if !traced {
        report.metrics = vec![
            ("setup_s", "s", median(&pooled(|l| &l.setups))),
            ("query_p50_s", "s", median(&latencies)),
            ("query_p90_s", "s", quantile(&latencies, 0.9)),
            ("throughput_qps", "1/s", untraced_qps),
            (
                "error_bound_geomean",
                "prob",
                geomean_positive(&pooled(|l| &l.bounds)),
            ),
            ("peak_rss_mb", "MB", peak_rss_mb()),
        ];
        return Ok(report);
    }

    let answers = &untraced[0].answers;
    let traced_logs = in_clients(|c| {
        let mut log = ClientLog::default();
        log.pass_secs = passes(
            queries,
            seed ^ (c << 48) ^ 0x7472_6163_6564,
            seconds / 2.0,
            0,
            || {},
            |q| {
                let result = trace::replay(&files[&q.model], q).and_then(|(a, sample)| {
                    log.samples.push(sample);
                    if !answers.get(&q.key).is_some_and(|u| u.bitwise_eq(&a)) {
                        return Err(format!(
                            "`{}`: traced replay differs from the untraced answer",
                            q.key
                        ));
                    }
                    refs.check(q, &a)
                });
                log.tally.count(result);
            },
        );
        Ok(log)
    })?;
    for log in &traced_logs {
        report.absorb(&log.tally);
    }
    let samples: Vec<Sample> = traced_logs
        .iter()
        .flat_map(|l| l.samples.iter().cloned())
        .collect();
    report.notes.push(format!(
        "traced: {} queries on {CLIENTS} clients",
        samples.len()
    ));
    report.metrics = trace::layer_metrics(&samples);
    report.metrics.extend(zero_server_metrics());
    report.metrics.push((
        "trace.overhead_frac",
        "ratio",
        throughput(queries.len(), &traced_logs) / untraced_qps - 1.0,
    ));
    Ok(report)
}

/// The session and request-path layers do not run in one-shot
/// workloads; they are reported as zero so every run prints the same
/// metric names.
pub fn zero_server_metrics() -> Vec<(&'static str, &'static str, f64)> {
    let mut out = vec![
        ("core.session.sat_hit_ratio", "ratio", 0.0),
        ("core.session.cert_cache_hits", "count", 0.0),
        ("core.session.models_loaded", "count", 0.0),
    ];
    out.extend(
        crate::serve::SERVER_METRICS
            .iter()
            .map(|&(name, unit)| (name, unit, 0.0)),
    );
    out
}
