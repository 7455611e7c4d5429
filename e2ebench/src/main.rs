//! End-to-end benchmark: APOLLO pre-training (serial and data-parallel)
//! followed by open-loop HTTP serving (exact trunk with prefix cache and
//! LoRA tenants, or INT8 trunk on unique prompts).
//!
//! ```text
//! e2ebench --workload NAME|all [--seed N] [--seconds N] [--trace 0|1]
//! e2ebench --calibrate [--seed N]
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! holding every end-to-end metric; with `--trace 1` it holds every
//! per-layer metric instead, taken from spans around the benchmark's own
//! calls into each layer (written to `.bench_out/` at exit). Any failed
//! correctness check ends the run with a non-zero exit and no result.
//! See PLAN.md for the workloads, metrics and predictions.

mod client;
mod serve;
mod spans;
mod stats;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use apollo_nn::ModelConfig;
use serve::{ServeSpec, Trunk};
use spans::Spans;
use train::TrainLoop;

/// Default workload seed, and the one kept back for confirming claims.
const DEFAULT_SEED: u64 = 1;
const CONFIRM_SEED: u64 = 2;
/// Share of `--seconds` spent serving scheduled traffic; training is a
/// fixed amount of work that takes about the rest on the reference host.
const SERVE_SHARE: f64 = 0.6;
const OUT_DIR: &str = ".bench_out";

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

struct Workload {
    name: &'static str,
    train_loop: TrainLoop,
    serve: ServeSpec,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "apollo-prefix-lora",
            train_loop: TrainLoop::Serial,
            serve: ServeSpec {
                model: ModelConfig::tiny_1b,
                trunk: Trunk::Exact,
                adapters: 3,
                prefix_len: 160,
                prompt_len: 168,
                reuse: 0.8,
                new_tokens: 8,
                prefill_chunk: 32,
                rate: 12.0,
            },
        },
        Workload {
            name: "ddp2-int8-unique",
            train_loop: TrainLoop::Ddp2,
            serve: ServeSpec {
                model: ModelConfig::tiny_7b,
                trunk: Trunk::Int8,
                adapters: 0,
                prefix_len: 0,
                prompt_len: 16,
                reuse: 0.0,
                new_tokens: 32,
                prefill_chunk: 4,
                rate: 8.0,
            },
        },
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 35.0,
        trace: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() && !args.calibrate {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one workload and returns `(attempted, failed, metrics)`.
fn run_workload(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(usize, usize, Vec<Metric>), String> {
    let serve_secs = seconds * SERVE_SHARE;
    let train = train::run(w.train_loop, seed)?;
    let serve = serve::run(&w.serve, seed, serve_secs, None)?;
    let attempted = train.steps + serve.sent;
    let failed = train.failed_steps + serve.failed;
    let metrics = if traced {
        let out = PathBuf::from(OUT_DIR);
        let stem = format!("{}-seed{seed}", w.name);
        let mut spans = Spans::new();
        std::fs::create_dir_all(&out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let mut layers = train::traced(
            w.train_loop,
            seed,
            &train,
            &mut spans,
            &out.join(format!("{stem}.train-obs.jsonl")),
        )?;
        let traced_serve = serve::run(
            &w.serve,
            seed,
            serve_secs,
            Some((&mut spans, &out.join(format!("{stem}.serve-obs.jsonl")))),
        )?;
        spans
            .write_jsonl(&out.join(format!("{stem}.spans.jsonl")))
            .map_err(|e| format!("writing spans: {e}"))?;
        layers.extend(traced_serve.layers);
        layers.push(Metric::new(
            "trace_overhead.serve",
            traced_serve.ttft_p50_ms / serve.ttft_p50_ms,
            "ratio",
        ));
        layers
    } else {
        let setup_s = stats::median(&train.setup_s) + stats::median(&serve.setup_s);
        let mut m = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
            Metric::new(
                "success_rate",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
        ];
        m.extend(train.e2e);
        m.extend(serve.e2e);
        m
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    Ok((attempted, failed, metrics))
}

fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: e2ebench --workload NAME|all [--seed N] [--seconds N] [--trace 0|1] | --calibrate");
            return ExitCode::from(2);
        }
    };
    // One kernel thread for every caller: the serial trainer, each DDP
    // replica and the serving worker. Set before any kernel runs: the
    // value is read once per process.
    std::env::set_var("APOLLO_NUM_THREADS", "1");
    eprintln!(
        "{}; seeds: default {DEFAULT_SEED}, confirm {CONFIRM_SEED}",
        stats::host_block("train serial 1, ddp 2x1, serve 1")
    );
    let all = workloads();
    if args.calibrate {
        for w in &all {
            match serve::calibrate(&w.serve, args.seed, 4.0) {
                Ok(cap) => println!(
                    "{}: capacity {cap:.1} req/s; configured rate {} req/s is {:.0}% of it",
                    w.name,
                    w.serve.rate,
                    100.0 * w.serve.rate / cap
                ),
                Err(e) => {
                    eprintln!("error: {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let chosen: Vec<&Workload> = all
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {}; known: all, {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    }
    for w in &chosen {
        match run_workload(w, args.seed, args.seconds, args.trace) {
            Ok((attempted, failed, metrics)) => {
                if chosen.len() > 1 {
                    for m in &metrics {
                        println!("{:<20} {:<40} {:>14.4} {}", w.name, m.name, m.value, m.unit);
                    }
                } else {
                    println!("{}", result_json(attempted, failed, &metrics));
                }
            }
            Err(e) => {
                eprintln!("error: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
