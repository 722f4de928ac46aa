//! Benchmark inputs: model files written from the `mrmc_models`
//! generators, and the query lists of the one-shot workloads.
//!
//! Every model is written once per run through `mrmc_mrm::io::write_*`
//! into the run's work directory, and its content digest is printed, so
//! a generator or writer change shows in the output.

use std::path::{Path, PathBuf};

use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::{phone, tmr, TmrConfig};
use mrmc_mrm::io::{write_lab, write_rewi, write_rewr, write_tra};
use mrmc_mrm::Mrm;

use crate::util::Fnv;

/// One model the workloads use, by the name its files carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ModelId {
    /// TMR(3), the constant rates of Table 5.2.
    Tmr3,
    /// TMR(11), constant rates (Table 5.5).
    Tmr11,
    /// TMR(11), variable rates (Tables 5.6/5.7).
    Tmr11Var,
    /// The phone model of Table 5.1 (state rewards only).
    Phone,
    /// `cluster(N)`.
    Cluster(usize),
    /// `cluster(8)` with repair impulse `k` instead of 4 — the
    /// `serve-mixed` write path rebinds a ref to one of these.
    ClusterVariant(u8),
}

/// Repair impulses of the `cluster(8)` variant pool.
pub const VARIANT_IMPULSES: [u8; 4] = [2, 3, 5, 6];

impl ModelId {
    pub fn name(self) -> String {
        match self {
            ModelId::Tmr3 => "tmr3".into(),
            ModelId::Tmr11 => "tmr11".into(),
            ModelId::Tmr11Var => "tmr11var".into(),
            ModelId::Phone => "phone".into(),
            ModelId::Cluster(n) => format!("cluster{n}"),
            ModelId::ClusterVariant(k) => format!("cluster8i{k}"),
        }
    }

    pub fn build(self) -> Mrm {
        match self {
            ModelId::Tmr3 => tmr(&TmrConfig::classic()),
            ModelId::Tmr11 => tmr(&TmrConfig::with_modules(11)),
            ModelId::Tmr11Var => tmr(&TmrConfig::with_modules(11).variable()),
            ModelId::Phone => phone::phone(),
            ModelId::Cluster(n) => cluster(&ClusterConfig::new(n)),
            ModelId::ClusterVariant(k) => cluster(&ClusterConfig {
                repair_impulse: f64::from(k),
                ..ClusterConfig::new(8)
            }),
        }
    }

    /// The state whose probability the oracle checks: the
    /// fully-operational state (TMR, cluster) or `Doze` (phone).
    pub fn reference_state(self) -> usize {
        match self {
            ModelId::Tmr3 => 3,
            ModelId::Tmr11 | ModelId::Tmr11Var => 11,
            ModelId::Phone => phone::DOZE,
            ModelId::Cluster(n) => ClusterConfig::new(n).all_up(),
            ModelId::ClusterVariant(_) => ClusterConfig::new(8).all_up(),
        }
    }
}

/// The four files of one written model.
#[derive(Debug, Clone)]
pub struct ModelFiles {
    pub paths: [PathBuf; 4],
    pub bytes: u64,
    pub digest: u64,
    pub states: usize,
}

impl ModelFiles {
    /// Write `id`'s files into `dir`.
    pub fn write(id: ModelId, dir: &Path) -> std::io::Result<ModelFiles> {
        let mrm = id.build();
        let name = id.name();
        let texts = [
            write_tra(&mrm),
            write_lab(&mrm),
            write_rewr(&mrm),
            write_rewi(&mrm),
        ];
        let mut digest = Fnv::new();
        let mut bytes = 0u64;
        let paths = ["tra", "lab", "rewr", "rewi"].map(|ext| dir.join(format!("{name}.{ext}")));
        for (path, text) in paths.iter().zip(&texts) {
            std::fs::write(path, text)?;
            digest.write(text.as_bytes()).write(&[0xff]);
            bytes += text.len() as u64;
        }
        Ok(ModelFiles {
            paths,
            bytes,
            digest: digest.finish(),
            states: mrm.num_states(),
        })
    }
}

/// One point the oracle checks: the probability at `state`.
#[derive(Debug, Clone, PartialEq)]
pub struct RefPoint {
    pub state: usize,
    /// The reference probability, as printed where it was taken from.
    pub p: String,
    /// The reference's own error bound.
    pub e: f64,
    /// `Some(tol)`: match to `tol` relative instead of the bound rule.
    pub relative: Option<f64>,
}

/// Where a query's reference probabilities come from.
#[derive(Debug, Clone, PartialEq)]
pub enum RefSource {
    /// Typed in from EXPERIMENTS.md's measured columns.
    Paper(Vec<RefPoint>),
    /// Recorded at the reference state in `references.tsv`.
    Recorded,
}

/// One query of a workload.
#[derive(Debug, Clone)]
pub struct Query {
    /// Unique and stable: the key of `references.tsv`.
    pub key: String,
    pub model: ModelId,
    pub formula: String,
    /// The CLI engine switch (`u=…`/`d=…`); `None` keeps the default.
    pub engine: Option<String>,
    pub refs: RefSource,
}

impl Query {
    pub fn new(model: ModelId, formula: &str, engine: Option<&str>, refs: RefSource) -> Query {
        Query {
            key: query_key(model, formula, engine),
            model,
            formula: formula.to_string(),
            engine: engine.map(str::to_string),
            refs,
        }
    }

    pub fn options(&self) -> mrmc::CheckOptions {
        let mut options = mrmc::CheckOptions::new();
        if let Some(engine) = &self.engine {
            options = options.with_engine(
                mrmc_server::parse_engine(engine).expect("benchmark engine switches are valid"),
            );
        }
        options
    }
}

fn query_key(model: ModelId, formula: &str, engine: Option<&str>) -> String {
    format!(
        "{}|{}|{}",
        model.name(),
        engine.unwrap_or("default"),
        formula
    )
}

fn tmr_row(formula_t: f64, w: &str, p: &str, e: f64) -> Query {
    Query::new(
        ModelId::Tmr3,
        &format!("P(> 0.1) [Sup U[0,{formula_t}][0,3000] failed]"),
        Some(&format!("u={w}")),
        RefSource::Paper(vec![RefPoint {
            state: ModelId::Tmr3.reference_state(),
            p: p.into(),
            e,
            relative: None,
        }]),
    )
}

/// `paper-tmr`: the evaluation rows of the paper, with the measured `P`
/// and `E` columns of EXPERIMENTS.md as references.
pub fn paper_queries() -> Vec<Query> {
    let mut q = Vec::new();
    // Table 5.3: w = 1e-11.
    for (t, p, e) in [
        (50.0, "0.005087385", 3.72e-9),
        (100.0, "0.010200959", 1.88e-8),
        (150.0, "0.015292325", 5.15e-8),
        (200.0, "0.020357791", 1.51e-7),
        (250.0, "0.025397188", 3.32e-7),
        (300.0, "0.030410619", 5.54e-7),
        (350.0, "0.035398076", 1.15e-6),
        (400.0, "0.037806745", 1.87e-5),
    ] {
        q.push(tmr_row(t, "1e-11", p, e));
    }
    // Table 5.4: the thesis' (t, w) schedule.
    for (t, w, p, e) in [
        (50.0, "1e-6", "0.005063250", 4.57e-5),
        (100.0, "1e-7", "0.010187450", 2.66e-5),
        (150.0, "1e-7", "0.015256058", 6.93e-5),
        (200.0, "1e-8", "0.020342622", 2.50e-5),
        (250.0, "1e-8", "0.025345800", 8.05e-5),
        (300.0, "1e-9", "0.030384562", 3.47e-5),
        (350.0, "1e-10", "0.035378283", 2.39e-5),
        (400.0, "1e-11", "0.037806745", 1.87e-5),
        (450.0, "1e-12", "0.037807343", 1.76e-5),
    ] {
        let mut row = tmr_row(t, w, p, e);
        // Table 5.4's t = 400 row is Table 5.3's; keep both rows, keyed apart.
        row.key.push_str("#5.4");
        q.push(row);
    }
    // Tables 5.5 / 5.7: one query each, checked at n = 0, 2, …, 10.
    let full_operation = "P(> 0.1) [TT U[0,100][0,2000] allUp]";
    for (model, rows) in [
        (
            ModelId::Tmr11,
            [
                ("0.021372", 4.12e-4),
                ("0.074298", 3.89e-4),
                ("0.240239", 2.56e-4),
                ("0.557037", 1.37e-4),
                ("0.871964", 4.38e-5),
                ("0.992591", 6.30e-6),
            ],
        ),
        (
            ModelId::Tmr11Var,
            [
                ("0.020207", 6.45e-4),
                ("0.068199", 7.58e-4),
                ("0.219586", 6.75e-4),
                ("0.517559", 4.69e-4),
                ("0.837509", 2.17e-4),
                ("0.985348", 3.90e-5),
            ],
        ),
    ] {
        let points = rows
            .iter()
            .enumerate()
            .map(|(i, &(p, e))| RefPoint {
                state: 2 * i,
                p: p.into(),
                e,
                relative: None,
            })
            .collect();
        q.push(Query::new(
            model,
            full_operation,
            Some("u=1e-8"),
            RefSource::Paper(points),
        ));
    }
    // Table 5.8: discretization, d = 0.25; matches to 1e-12 relative.
    for (t, p) in [
        (50, "0.005061779415718185"),
        (100, "0.010175568967901441"),
        (150, "0.015267158582408307"),
        (200, "0.020332872743413406"),
    ] {
        q.push(Query::new(
            ModelId::Tmr3,
            &format!("P(> 0.1) [Sup U[0,{t}][0,3000] failed]"),
            Some("d=0.25"),
            RefSource::Paper(vec![RefPoint {
                state: ModelId::Tmr3.reference_state(),
                p: p.into(),
                e: 0.0,
                relative: Some(1e-12),
            }]),
        ));
    }
    // Table 5.1: the phone model, d = 1/16 and 1/32.
    for (d, p) in [("0.0625", "0.215702406821"), ("0.03125", "0.215824141836")] {
        q.push(Query::new(
            ModelId::Phone,
            "P(> 0.5) [(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]",
            Some(&format!("d={d}")),
            RefSource::Paper(vec![RefPoint {
                state: ModelId::Phone.reference_state(),
                p: p.into(),
                e: 0.0,
                relative: None,
            }]),
        ));
    }
    q
}

/// The cluster formula mix: reachability, transient (baseline),
/// time- and reward-bounded until (uniformization) and steady state.
pub const CLUSTER_FORMULAS: [&str; 4] = [
    "P(> 0.1) [TT U down]",
    "P(> 0.5) [TT U[0,10] down]",
    "P(> 0.001) [premium U[0,1][0,4] down]",
    "S(> 0.9) (premium)",
];

/// `cluster-oneshot`: every mix formula on `cluster(N)`, N ∈ {8, 16, 32}.
pub fn cluster_queries() -> Vec<Query> {
    let mut q = Vec::new();
    for n in [8, 16, 32] {
        for f in CLUSTER_FORMULAS {
            q.push(Query::new(
                ModelId::Cluster(n),
                f,
                None,
                RefSource::Recorded,
            ));
        }
    }
    q
}

pub fn models_of(queries: &[Query]) -> Vec<ModelId> {
    let mut ids: Vec<ModelId> = queries.iter().map(|q| q.model).collect();
    ids.sort();
    ids.dedup();
    ids
}
