//! End-to-end and per-layer benchmark of the Dante reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_mnist|fleet_burst|retrain_mnist|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the workload's reference unit untraced and traced and
//! prints the per-layer breakdown. The last stdout line is the JSON result;
//! the lines before it name the workload's own figures with units. See
//! `perfbench/README.md` for what each metric means.

mod fleet;
mod report;
mod retrain;
mod serve;
mod sweep;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The seed the pinned output digests were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Seed-derivation site of the benchmark's own per-unit seeds (outside the
/// range of the program's `dante_sim::site` constants).
const BENCH_SITE: u64 = 0xBE_0C;

/// Everything a workload needs to know about its run.
#[derive(Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    /// Where the benchmark keeps its artifact cache, spans and results.
    pub state_dir: PathBuf,
}

impl Config {
    /// The seed of the `k`-th unit of work in this run.
    pub fn unit_seed(&self, k: usize) -> u64 {
        dante_sim::derive_seed(self.seed, BENCH_SITE, k as u64)
    }

    /// How many units of nominal cost `unit_s` (seconds on the reference
    /// box) fill `--seconds`, at least `min`. The count depends only on the
    /// arguments, so counts repeat exactly between runs.
    pub fn units(&self, unit_s: f64, min: usize) -> usize {
        ((self.seconds as f64 / unit_s).round() as usize).max(min)
    }

    pub fn is_default_seed(&self) -> bool {
        self.seed == DEFAULT_SEED
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be a non-negative integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's stdout, or `"unknown"`.
fn command_line(command: &mut Command) -> String {
    command
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn environment_line(seed: u64, root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The ceiling keeps git from searching above the working directory: a
    // checkout that is not a repository reports `unknown`.
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root));
    format!(
        "env: nproc={nproc} engine_threads={} rustc=\"{}\" rev={} seed={seed}",
        dante_sim::TrialEngine::from_env().threads(),
        command_line(Command::new("rustc").arg("--version")),
        command_line(&mut git),
    )
}

fn save_result(dir: &Path, name: &str, lines: &[String]) {
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join(name), lines.join("\n") + "\n");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Config, bool) -> Outcome = match args.workload.as_str() {
        "sweep_mnist" => sweep::run,
        "fleet_burst" => fleet::run,
        "retrain_mnist" => retrain::run,
        "serve_mix" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(cwd) => cwd,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let state_dir = root.join(".bench_cache");
    // Production defaults only: the engine uses every core and the batched
    // forward pass. The artifact cache is the benchmark's own, filled
    // untimed by each workload before it measures anything.
    std::env::remove_var("DANTE_THREADS");
    std::env::remove_var("DANTE_FORWARD");
    std::env::set_var("DANTE_CACHE", state_dir.join("dante-cache"));

    let config = Config {
        seed: args.seed,
        seconds: args.seconds,
        state_dir,
    };
    let env = environment_line(config.seed, &root);
    let mut outcome = run(&config, args.trace);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace && !outcome.values.contains_key("peak_rss_mb") {
        outcome.set("peak_rss_mb", report::peak_rss_mb());
    }
    outcome.note(format!(
        "fail_frac = {:?} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    ));
    let result = outcome.to_json(table);
    let mut lines = vec![env];
    lines.extend(
        outcome
            .notes
            .iter()
            .map(|n| format!("{}: {n}", args.workload)),
    );
    lines.push(result);
    for line in &lines {
        println!("{line}");
    }
    save_result(
        &config.state_dir.join("results"),
        &format!(
            "{}-seed{}-trace{}.txt",
            args.workload,
            config.seed,
            u8::from(args.trace)
        ),
        &lines,
    );
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
