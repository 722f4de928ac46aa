//! `serve-mixed`: a closed loop against an in-process `mrmc_server::Server`
//! (`workers: 2`) from two client connections. Each client sends its next
//! JSONL request only after the previous reply has arrived.
//!
//! A run is a sequence of episodes. Each episode binds a fresh server
//! (so its session caches start cold), connects both clients, loads the
//! four models on each connection — that is the set-up `setup_s` times —
//! and then plays a fixed mix of requests per client in a seeded order:
//!
//! * checks, about half from a hot set of four repeated formulas
//!   (`Sat`-cache hits after their first use), half with time/reward
//!   bounds from a finite grid (cold until first seen, then hits);
//! * one request in ten a `load`: half re-load a ref's unchanged files
//!   (deduplicated by digest), half rebind the connection's `c8` ref to
//!   one of a fixed pool of `cluster(8)` files with different impulse
//!   costs (new content, cold caches);
//! * a few `stats`.
//!
//! The grid and the pool are finite, so the caches stay bounded within an
//! episode although the program never evicts.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Barrier, Mutex};

use mrmc::report::json_escape;
use mrmc_obs::json::{self, Value};
use mrmc_server::{connect_with_retry, Server, ServerConfig};

use crate::inputs::{
    cluster_queries, models_of, paper_queries, ModelFiles, ModelId, Query, RefSource,
    CLUSTER_FORMULAS, VARIANT_IMPULSES,
};
use crate::oneshot::{check_once, write_models};
use crate::oracle::{Answer, References};
use crate::trace::{self, Sample};
use crate::util::{mean, median, peak_rss_mb, quantile, ratio, Rng, Stopwatch};
use crate::{Report, Tally};

/// The model refs every connection loads at set-up.
const REFS: [(&str, ModelId); 4] = [
    ("tmr", ModelId::Tmr3),
    ("tmr11", ModelId::Tmr11),
    ("c8", ModelId::Cluster(8)),
    ("c16", ModelId::Cluster(16)),
];

/// The ref a `load` may rebind, and the files it may be rebound to.
const REBIND_REF: &str = "c8";

fn rebind_pool() -> Vec<ModelId> {
    std::iter::once(ModelId::Cluster(8))
        .chain(VARIANT_IMPULSES.iter().map(|&k| ModelId::ClusterVariant(k)))
        .collect()
}

/// Episodes per run phase at least, so `setup_s` is a median.
const MIN_EPISODES: usize = 3;

/// One client's episode is a fixed multiset of requests in a seeded
/// order: every grid formula of every ref once, each hot formula
/// `HOT_REPEATS` times, `LOADS` re-loads and as many rebinds, and
/// `STATS` stats requests. A fixed mix keeps the run-to-run spread of
/// every metric down to the effect of order.
const HOT_REPEATS: usize = 6;
const LOADS: usize = 3;
const STATS: usize = 2;

/// The request kinds the per-kind server metrics are split by.
const KINDS: [&str; 3] = ["load", "check", "stats"];

/// The per-kind request-path metric names, with units.
pub const SERVER_METRICS: [(&str, &str); 9] = [
    ("server.service_s.load", "s"),
    ("server.service_s.check", "s"),
    ("server.service_s.stats", "s"),
    ("server.wait_s.load", "s"),
    ("server.wait_s.check", "s"),
    ("server.wait_s.stats", "s"),
    ("server.error_replies.load", "count"),
    ("server.error_replies.check", "count"),
    ("server.error_replies.stats", "count"),
];

/// The formulas checked on a model family, bounds from the finite grid.
fn family_formulas(id: ModelId) -> Vec<String> {
    match id {
        ModelId::Tmr3 => [50, 100, 150, 200]
            .iter()
            .map(|t| format!("P(> 0.1) [Sup U[0,{t}][0,3000] failed]"))
            .collect(),
        ModelId::Tmr11 => [1000, 1500, 2000]
            .iter()
            .map(|r| format!("P(> 0.1) [TT U[0,100][0,{r}] allUp]"))
            .collect(),
        _ => {
            let mut f = vec![CLUSTER_FORMULAS[0].to_string()];
            f.extend(
                [5, 10, 20]
                    .iter()
                    .map(|t| format!("P(> 0.5) [TT U[0,{t}] down]")),
            );
            for t in ["0.5", "1"] {
                for r in [2, 4] {
                    f.push(format!("P(> 0.001) [premium U[0,{t}][0,{r}] down]"));
                }
            }
            f.push(CLUSTER_FORMULAS[3].to_string());
            f
        }
    }
}

/// The hot set: `(ref, formula)`, each also a member of its family grid.
fn hot_set() -> [(&'static str, String); 4] {
    [
        ("tmr", "P(> 0.1) [Sup U[0,100][0,3000] failed]".into()),
        ("tmr11", "P(> 0.1) [TT U[0,100][0,2000] allUp]".into()),
        ("c8", CLUSTER_FORMULAS[0].into()),
        ("c16", CLUSTER_FORMULAS[3].into()),
    ]
}

/// Every `(model, formula)` pair the traffic can produce.
pub fn universe() -> Vec<Query> {
    let mut ids: Vec<ModelId> = REFS.iter().map(|&(_, id)| id).collect();
    ids.extend(rebind_pool());
    ids.sort();
    ids.dedup();
    ids.into_iter()
        .flat_map(|id| {
            family_formulas(id)
                .into_iter()
                .map(move |f| Query::new(id, &f, None, RefSource::Recorded))
        })
        .collect()
}

/// Recompute every recorded reference: the verdict digests of all
/// workloads and the reference points of `cluster-oneshot` and
/// `serve-mixed`.
pub fn record_all(dir: &Path) -> Result<References, String> {
    let mut queries = paper_queries();
    queries.extend(cluster_queries());
    queries.extend(universe());
    let mut report = Report::default();
    let files = write_models(&models_of(&queries), dir, &mut report)?;
    let mut refs = References::default();
    for q in &queries {
        let (answer, _) = check_once(&files[&q.model], q);
        refs.record(q, &answer?);
    }
    Ok(refs)
}

/// One request of the traffic.
#[derive(Debug, Clone)]
enum Request {
    Load {
        model_ref: &'static str,
        id: ModelId,
    },
    Check {
        model_ref: &'static str,
        query: Query,
    },
    Stats,
}

impl Request {
    fn kind(&self) -> usize {
        match self {
            Request::Load { .. } => 0,
            Request::Check { .. } => 1,
            Request::Stats => 2,
        }
    }

    fn line(&self, files: &BTreeMap<ModelId, ModelFiles>, id: u64) -> String {
        match self {
            Request::Load {
                model_ref,
                id: model,
            } => {
                let p = &files[model].paths;
                let q = |i: usize| json_escape(&p[i].to_string_lossy());
                format!(
                    "{{\"load\":{{\"model\":\"{model_ref}\",\"tra\":\"{}\",\"lab\":\"{}\",\"rewr\":\"{}\",\"rewi\":\"{}\"}}}}",
                    q(0),
                    q(1),
                    q(2),
                    q(3)
                )
            }
            Request::Check { model_ref, query } => format!(
                "{{\"check\":{{\"model\":\"{model_ref}\",\"formula\":\"{}\"}},\"id\":{id}}}",
                json_escape(&query.formula)
            ),
            Request::Stats => "{\"stats\":true}".to_string(),
        }
    }
}

/// What a traffic slot asks for before the seed resolves its target.
#[derive(Debug, Clone)]
enum Slot {
    Check(&'static str, String),
    Reload,
    Rebind,
    Stats,
}

/// The seeded traffic of one client in one episode.
fn traffic(seed: u64, episode: u64, client: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ episode.wrapping_mul(0x9E37_79B9) ^ (client << 56));
    let mut slots: Vec<Slot> = Vec::new();
    for (model_ref, id) in REFS {
        slots.extend(
            family_formulas(id)
                .into_iter()
                .map(|f| Slot::Check(model_ref, f)),
        );
    }
    for _ in 0..HOT_REPEATS {
        slots.extend(hot_set().into_iter().map(|(r, f)| Slot::Check(r, f)));
    }
    for _ in 0..LOADS {
        slots.extend([Slot::Reload, Slot::Rebind]);
    }
    slots.extend((0..STATS).map(|_| Slot::Stats));
    rng.shuffle(&mut slots);

    let mut bound: Vec<(&'static str, ModelId)> = REFS.to_vec();
    let pool = rebind_pool();
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Check(model_ref, formula) => {
                let id = bound
                    .iter()
                    .find(|(r, _)| *r == model_ref)
                    .expect("ref is bound")
                    .1;
                Request::Check {
                    model_ref,
                    query: Query::new(id, &formula, None, RefSource::Recorded),
                }
            }
            Slot::Reload => {
                let (model_ref, id) = bound[rng.below(bound.len())];
                Request::Load { model_ref, id }
            }
            Slot::Rebind => {
                let id = pool[rng.below(pool.len())];
                let slot = bound
                    .iter_mut()
                    .find(|(r, _)| *r == REBIND_REF)
                    .expect("c8 is bound");
                slot.1 = id;
                Request::Load {
                    model_ref: REBIND_REF,
                    id,
                }
            }
            Slot::Stats => Request::Stats,
        })
        .collect()
}

/// One client connection: a request/reply exchange at a time.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = connect_with_retry(&addr.to_string(), 100).map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
        })
    }

    /// Send one line and wait for one reply line; returns the reply and
    /// the round-trip seconds.
    fn exchange(&mut self, line: &str) -> Result<(Value, f64), String> {
        let clock = Stopwatch::start();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        let rtt = clock.secs();
        if reply.is_empty() {
            return Err("connection closed".into());
        }
        Ok((json::parse(&reply).map_err(|e| e.to_string())?, rtt))
    }

    /// Close the write half and drain the stream to its `run_summary`.
    fn finish(mut self) {
        let _ = self.writer.shutdown(Shutdown::Write);
        let mut sink = String::new();
        while self.reader.read_line(&mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
    }
}

/// Judge one reply against its request.
fn judge(
    request: &Request,
    reply: &Value,
    files: &BTreeMap<ModelId, ModelFiles>,
    refs: &References,
) -> Result<Option<Answer>, String> {
    if reply.get("error").is_some() {
        return Err(format!("refused: {}", reply.render()));
    }
    match request {
        Request::Load { model_ref, id } => {
            let states = reply.get("states").and_then(Value::as_u64);
            if reply.get("loaded").and_then(Value::as_str) != Some(model_ref)
                || states != Some(files[id].states as u64)
            {
                return Err(format!("bad load reply {}", reply.render()));
            }
            Ok(None)
        }
        Request::Check { query, .. } => {
            let answer = Answer::from_reply(reply, files[&query.model].states)?;
            refs.check(query, &answer)?;
            Ok(Some(answer))
        }
        Request::Stats => reply
            .get("stats")
            .and_then(|stats| stats.get("sat_cache_hits"))
            .map(|_| None)
            .ok_or_else(|| format!("bad stats reply {}", reply.render())),
    }
}

/// What one client measured in one episode.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    /// Round trips of the traffic requests.
    latencies: Vec<f64>,
    /// Round trips per kind, set-up loads included.
    rtt: [Vec<f64>; 3],
    /// Server `elapsed_s` of check replies.
    check_service: Vec<f64>,
    error_replies: [u64; 3],
    bounds: Vec<f64>,
    samples: Vec<Sample>,
    final_stats: Option<Value>,
}

struct EpisodeCtx<'a> {
    files: &'a BTreeMap<ModelId, ModelFiles>,
    refs: &'a References,
    traced: bool,
    /// Keys already replayed this run (traced episodes replay each once).
    replayed: &'a Mutex<BTreeSet<String>>,
    setup_done: Barrier,
    traffic_done: Barrier,
}

fn client_episode(
    ctx: &EpisodeCtx<'_>,
    addr: SocketAddr,
    requests: &[Request],
    closes: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = Client::connect(addr);
    let mut exchange = |log: &mut ClientLog, request: &Request, id: u64| -> Result<Value, String> {
        let client = client.as_mut().map_err(|e| e.clone())?;
        let (reply, rtt) = client.exchange(&request.line(ctx.files, id))?;
        let kind = request.kind();
        log.rtt[kind].push(rtt);
        if reply.get("error").is_some() {
            log.error_replies[kind] += 1;
        }
        if let Some(s) = reply.get("elapsed_s").and_then(Value::as_f64) {
            log.check_service.push(s);
        }
        Ok(reply)
    };
    for &(model_ref, id) in &REFS {
        let request = Request::Load { model_ref, id };
        let result = exchange(&mut log, &request, 0)
            .and_then(|reply| judge(&request, &reply, ctx.files, ctx.refs).map(|_| ()));
        log.tally.count(result);
    }
    ctx.setup_done.wait();
    for (i, request) in requests.iter().enumerate() {
        let replay = match request {
            Request::Check { query, .. } if ctx.traced => {
                let first = ctx
                    .replayed
                    .lock()
                    .expect("replay set lock")
                    .insert(query.key.clone());
                first.then(|| trace::replay(&ctx.files[&query.model], query))
            }
            _ => None,
        };
        let before = log.rtt[request.kind()].len();
        let result = exchange(&mut log, request, i as u64).and_then(|reply| {
            let answer = judge(request, &reply, ctx.files, ctx.refs)?;
            if let Request::Check { query, .. } = request {
                let a = answer.as_ref().expect("checks yield answers");
                for point in ctx.refs.points(query) {
                    log.bounds.push(a.bound_at(point.state));
                }
                if let Some(replayed) = replay {
                    let (r, sample) = replayed?;
                    log.samples.push(sample);
                    if !r.bitwise_eq(a) {
                        return Err(format!(
                            "`{}`: traced replay differs from the server reply",
                            query.key
                        ));
                    }
                }
            }
            Ok(())
        });
        if let Some(&rtt) = log.rtt[request.kind()].get(before) {
            log.latencies.push(rtt);
        }
        log.tally.count(result);
    }
    ctx.traffic_done.wait();
    if let Ok(mut c) = client {
        if closes {
            log.final_stats = c
                .exchange("{\"stats\":true}")
                .ok()
                .and_then(|(v, _)| v.get("stats").cloned());
        }
        c.finish();
    }
    log
}

/// What one episode measured.
struct Episode {
    setup_s: f64,
    traffic_s: f64,
    logs: Vec<ClientLog>,
}

fn episode(ctx: &EpisodeCtx<'_>, seed: u64, index: u64) -> Result<Episode, String> {
    let traffic: Vec<Vec<Request>> = (0..2).map(|c| traffic(seed, index, c)).collect();
    let clock = Stopwatch::start();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            slow_request_s: 0.0,
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let (setup_s, traffic_s, logs) = std::thread::scope(|s| {
        let served = s.spawn(|| server.run(Some(2)));
        let clients: Vec<_> = traffic
            .iter()
            .enumerate()
            .map(|(c, requests)| s.spawn(move || client_episode(ctx, addr, requests, c == 0)))
            .collect();
        ctx.setup_done.wait();
        let setup_s = clock.secs();
        ctx.traffic_done.wait();
        let traffic_s = clock.secs() - setup_s;
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        let served = served.join().expect("server thread panicked");
        (setup_s, traffic_s, served.map(|()| logs))
    });
    Ok(Episode {
        setup_s,
        traffic_s,
        logs: logs.map_err(|e| format!("server: {e}"))?,
    })
}

/// Mean per-request service seconds of `kind` from the final `stats`
/// reply's latency histogram.
fn hist_mean(stats: &Value, kind: &str) -> Option<f64> {
    let h = stats.get("latency")?.get(kind)?;
    Some(ratio(h.get("sum_s")?.as_f64()?, h.get("count")?.as_f64()?))
}

pub fn run(dir: &Path, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let refs = References::builtin();
    let mut report = Report::default();
    let files = write_models(&models_of(&universe()), dir, &mut report)?;
    let replayed = Mutex::new(BTreeSet::new());
    let ctx = |traced| EpisodeCtx {
        files: &files,
        refs: &refs,
        traced,
        replayed: &replayed,
        setup_done: Barrier::new(3),
        traffic_done: Barrier::new(3),
    };

    // Untraced episodes, then (with --trace 1) traced ones.
    let mut phases: Vec<Vec<Episode>> = Vec::new();
    let phase_plan: &[(bool, f64)] = if traced {
        &[(false, seconds / 2.0), (true, seconds / 2.0)]
    } else {
        &[(false, seconds)]
    };
    let mut index = 0u64;
    // The high-water mark after the first episode: later episodes raise it
    // by what the allocator keeps from dropped servers, which would make
    // the figure grow with the number of episodes a run fits in.
    let mut first_episode_rss = 0.0;
    for &(traced, budget) in phase_plan {
        let clock = Stopwatch::start();
        let mut episodes = Vec::new();
        while episodes.len() < MIN_EPISODES || clock.secs() < budget {
            episodes.push(episode(&ctx(traced), seed, index)?);
            if index == 0 {
                first_episode_rss = peak_rss_mb();
            }
            index += 1;
        }
        phases.push(episodes);
    }

    for log in phases.iter().flatten().flat_map(|e| &e.logs) {
        report.absorb(&log.tally);
    }
    // Requests per second: the median over episodes of each episode's
    // rate, so a burst of contention on the host moves it less.
    let throughput = |episodes: &[Episode]| {
        let rates: Vec<f64> = episodes
            .iter()
            .map(|e| e.logs.iter().map(|l| l.latencies.len()).sum::<usize>() as f64 / e.traffic_s)
            .collect();
        median(&rates)
    };
    let untraced = &phases[0];
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|e| &e.logs)
        .flat_map(|l| l.latencies.iter().copied())
        .collect();
    report.notes.push(format!(
        "untraced: {} episodes, {} requests (2 clients)",
        untraced.len(),
        latencies.len(),
    ));
    if !traced {
        let bounds: Vec<f64> = untraced
            .iter()
            .flat_map(|e| &e.logs)
            .flat_map(|l| l.bounds.iter().copied())
            .collect();
        report.metrics = vec![
            (
                "setup_s",
                "s",
                median(&untraced.iter().map(|e| e.setup_s).collect::<Vec<_>>()),
            ),
            ("query_p50_s", "s", median(&latencies)),
            ("query_p90_s", "s", quantile(&latencies, 0.9)),
            ("throughput_qps", "1/s", throughput(untraced)),
            (
                "error_bound_geomean",
                "prob",
                crate::util::geomean_positive(&bounds),
            ),
            ("peak_rss_mb", "MB", first_episode_rss),
        ];
        return Ok(report);
    }

    let traced_eps = &phases[1];
    let logs: Vec<&ClientLog> = traced_eps.iter().flat_map(|e| &e.logs).collect();
    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().cloned())
        .collect();
    report.notes.push(format!(
        "traced: {} episodes, {} distinct checks replayed",
        traced_eps.len(),
        samples.len()
    ));
    report.metrics = trace::layer_metrics(&samples);

    let finals: Vec<&Value> = logs.iter().filter_map(|l| l.final_stats.as_ref()).collect();
    let stat = |key: &str| {
        mean(
            &finals
                .iter()
                .filter_map(|v| v.get(key)?.as_f64())
                .collect::<Vec<_>>(),
        )
    };
    let (hits, misses) = (stat("sat_cache_hits"), stat("sat_cache_misses"));
    report.metrics.push((
        "core.session.sat_hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
    ));
    report.metrics.push((
        "core.session.cert_cache_hits",
        "count",
        stat("cert_cache_hits"),
    ));
    report
        .metrics
        .push(("core.session.models_loaded", "count", stat("models_loaded")));

    let episodes = traced_eps.len() as f64;
    for (k, kind) in KINDS.iter().enumerate() {
        let rtt: Vec<f64> = logs.iter().flat_map(|l| l.rtt[k].iter().copied()).collect();
        let service = if *kind == "check" {
            mean(
                &logs
                    .iter()
                    .flat_map(|l| l.check_service.iter().copied())
                    .collect::<Vec<_>>(),
            )
        } else {
            mean(
                &finals
                    .iter()
                    .filter_map(|v| hist_mean(v, kind))
                    .collect::<Vec<_>>(),
            )
        };
        let errors: u64 = logs.iter().map(|l| l.error_replies[k]).sum();
        report.metrics.push((SERVER_METRICS[k].0, "s", service));
        report.metrics.push((
            SERVER_METRICS[3 + k].0,
            "s",
            (mean(&rtt) - service).max(0.0),
        ));
        report
            .metrics
            .push((SERVER_METRICS[6 + k].0, "count", errors as f64 / episodes));
    }
    report.metrics.push((
        "trace.overhead_frac",
        "ratio",
        throughput(traced_eps) / throughput(untraced) - 1.0,
    ));
    let grid: usize = REFS.iter().map(|&(_, id)| family_formulas(id).len()).sum();
    let hot = HOT_REPEATS * hot_set().len();
    report.notes.push(format!(
        "sat_hit_ratio {:.3}; of the checks {:.3} are hot and {:.3} grid",
        ratio(hits, hits + misses),
        hot as f64 / (hot + grid) as f64,
        grid as f64 / (hot + grid) as f64,
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_seeded_and_keeps_its_mix() {
        let a = traffic(7, 0, 0);
        let b = traffic(7, 0, 0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{:?}", traffic(8, 0, 0)));
        let loads = a
            .iter()
            .filter(|r| matches!(r, Request::Load { .. }))
            .count();
        assert_eq!(loads, 2 * LOADS);
    }

    #[test]
    fn every_traffic_query_has_a_reference() {
        let refs = References::builtin();
        for seed in 0..20 {
            for r in traffic(seed, 0, seed % 2) {
                if let Request::Check { query, .. } = r {
                    assert!(refs.0.contains_key(&query.key), "{}", query.key);
                }
            }
        }
    }

    #[test]
    fn a_refused_request_counts_as_failed() {
        let dir = crate::work_dir("selftest").unwrap();
        let mut report = Report::default();
        let files = write_models(&[ModelId::Tmr3], &dir, &mut report).unwrap();
        let refs = References::builtin();
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                slow_request_s: 0.0,
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| server.run(Some(1)).unwrap());
            let mut client = Client::connect(addr).unwrap();
            // No model is loaded under `tmr` on this connection.
            let request = Request::Check {
                model_ref: "tmr",
                query: Query::new(ModelId::Tmr3, &hot_set()[0].1, None, RefSource::Recorded),
            };
            let (reply, _) = client.exchange(&request.line(&files, 1)).unwrap();
            let mut tally = Tally::default();
            tally.count(judge(&request, &reply, &files, &refs).map(|_| ()));
            assert_eq!((tally.attempted, tally.failures.len()), (1, 1));
            client.finish();
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
