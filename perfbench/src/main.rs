//! The mrmc benchmark: one command that writes the inputs, runs a named
//! workload, checks every answer against a reference, and prints every
//! metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-tmr|cluster-oneshot|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for every metric and why each workload exists.
//!
//! `--record <file>` instead recomputes every recorded reference (the
//! `cluster-oneshot` and `serve-mixed` universes, and every verdict
//! digest) and writes them to `<file>`.

mod inputs;
mod oneshot;
mod oracle;
mod serve;
mod trace;
mod util;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// What a run measured, ready to print.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Add one client's tally; its first failures are printed to stderr.
    pub fn absorb(&mut self, tally: &Tally) {
        for e in tally.failures.iter().take(10) {
            eprintln!("perfbench: failed: {e}");
        }
        self.attempted += tally.attempted;
        self.failed += tally.failures.len() as u64;
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Answers attempted by one client, and why each failed one failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn count(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--record" => args.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.record.is_none() && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A fresh scratch directory for this run's model files, inside the
/// build directory of the checkout.
fn work_dir(workload: &str) -> std::io::Result<PathBuf> {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = base
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn run(args: &Args) -> Result<Report, String> {
    let dir = work_dir(if args.workload.is_empty() {
        "record"
    } else {
        &args.workload
    })
    .map_err(|e| format!("cannot create the work directory: {e}"))?;
    let result = if let Some(out) = &args.record {
        let refs = serve::record_all(&dir)?;
        std::fs::write(out, refs.render()).map_err(|e| e.to_string())?;
        Ok(Report {
            notes: vec![format!(
                "{} references written to {}",
                refs.0.len(),
                out.display()
            )],
            ..Report::default()
        })
    } else {
        match args.workload.as_str() {
            "paper-tmr" => oneshot::run(
                &inputs::paper_queries(),
                &dir,
                args.seed,
                args.seconds,
                args.trace,
            ),
            "cluster-oneshot" => oneshot::run(
                &inputs::cluster_queries(),
                &dir,
                args.seed,
                args.seconds,
                args.trace,
            ),
            "serve-mixed" => serve::run(&dir, args.seed, args.seconds, args.trace),
            other => Err(format!("unknown workload `{other}`")),
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            if args.record.is_none() {
                println!("{}", report.json());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
