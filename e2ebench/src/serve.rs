//! Serving phase: an in-process HTTP front-end over the continuous-batching
//! scheduler on tiny-1b, driven by the open-loop client at a fixed rate.
//!
//! The program under test sees only the generated requests. After the
//! measured window every completed request is checked against a cold
//! single-slot [`Scheduler`] on the same backend, adapter and prompt.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apollo_infer::{
    Frontend, GenConfig, GenRequest, SchedConfig, Scheduler, ServeConfig, ServeStats,
};
use apollo_nn::{
    AdapterRegistry, DecodeBackend, LinearMode, LlamaModel, LoraAdapter, ModelConfig,
    QuantizedModel,
};
use apollo_obs::{read_trace, Obs, TraceEvent};
use apollo_tensor::{Matrix, Rng};

use crate::client::{self, Class, Planned, Record};
use crate::spans::Spans;
use crate::stats::{mean, percentile, supports_percentile};
use crate::Metric;

/// Which decode trunk serves the traffic.
#[derive(Debug, Clone, Copy)]
pub enum Trunk {
    /// f32 weights and KV, LoRA deltas applied per batch row.
    Exact,
    /// INT8 weights with a BF16 KV cache.
    Int8,
}

/// One traffic mix. Rates are constants, set once to about 70% of the
/// capacity measured with `--calibrate` on the host recorded in PLAN.md.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub model: fn() -> ModelConfig,
    pub trunk: Trunk,
    /// LoRA tenants (rank 4); 0 serves the base model.
    pub adapters: usize,
    /// Length of each tenant's shared prompt prefix (0: none).
    pub prefix_len: usize,
    pub prompt_len: usize,
    /// Share of requests that reuse their tenant's prefix.
    pub reuse: f64,
    pub new_tokens: usize,
    /// Prompt rows prefilled per sequence per tick; small chunks cap the
    /// stall a new prompt imposes on sequences already decoding.
    pub prefill_chunk: usize,
    /// Offered load, requests per second.
    pub rate: f64,
}

/// A request counts toward goodput only when its first token arrives
/// within `TTFT_LIMIT_MS` of its due time and no gap between its tokens
/// exceeds `ITL_LIMIT_MS`.
const TTFT_LIMIT_MS: f64 = 100.0;
const ITL_LIMIT_MS: f64 = 50.0;

/// Prefix-cache budget, the same for every traffic mix.
const PREFIX_CACHE_BYTES: usize = 64 << 20;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A run whose generator sent its 99th-percentile request later than this
/// after its due time measured the client, not the server: it is refused.
const MAX_LAG_P99_MS: f64 = 10.0;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
const REQUEST_DEADLINE_MS: u64 = 30_000;

/// The generated inputs: per-request prompt and tenant.
struct Traffic {
    prompts: Vec<Vec<u32>>,
    tenants: Vec<Option<usize>>,
    due: Vec<Duration>,
    /// One warm-up prompt per tenant (or a few unique ones), sent during
    /// set-up so the measured window starts with the tenant prefixes cached.
    warmup: Vec<(Vec<u32>, Option<usize>)>,
}

fn random_tokens(rng: &mut Rng, n: usize, vocab: usize) -> Vec<u32> {
    (0..n).map(|_| rng.below(vocab) as u32).collect()
}

/// Seed of every workload's traffic shape: arrival times, tenants, and
/// which requests reuse their tenant's prefix. The workload seed draws the
/// token contents (and the model), so runs with different seeds offer the
/// same queueing pattern with different prompts.
const SHAPE_SEED: u64 = 0x7AFF_1C00;

fn traffic(spec: &ServeSpec, seed: u64, secs: f64, vocab: usize) -> Traffic {
    let mut shape = Rng::seed_from_u64(SHAPE_SEED);
    let mut content = Rng::seed_from_u64(seed ^ 0xC047_E475);
    let tenants_n = spec.adapters.max(1);
    let prefixes: Vec<Vec<u32>> = (0..tenants_n)
        .map(|_| random_tokens(&mut content, spec.prefix_len, vocab))
        .collect();
    let n = (spec.rate * secs).round().max(1.0) as usize;
    // A Poisson process conditioned on `n` arrivals in `[0, secs)`: sorted
    // uniform arrival times, so the offered rate is exactly `rate`.
    let mut due: Vec<Duration> = (0..n)
        .map(|_| Duration::from_secs_f64(f64::from(shape.uniform()) * secs))
        .collect();
    due.sort();
    let mut prompts = Vec::with_capacity(n);
    let mut tenants = Vec::with_capacity(n);
    let suffix = spec.prompt_len - spec.prefix_len;
    for _ in 0..n {
        let tenant = shape.below(tenants_n);
        let prompt = if spec.prefix_len > 0 && f64::from(shape.uniform()) < spec.reuse {
            let mut p = prefixes[tenant].clone();
            p.extend(random_tokens(&mut content, suffix, vocab));
            p
        } else {
            random_tokens(&mut content, spec.prompt_len, vocab)
        };
        prompts.push(prompt);
        tenants.push((spec.adapters > 0).then_some(tenant));
    }
    let warmup = (0..tenants_n.max(4))
        .map(|i| {
            let t = i % tenants_n;
            let mut p = prefixes[t].clone();
            p.extend(random_tokens(&mut content, suffix, vocab));
            (p, (spec.adapters > 0).then_some(t))
        })
        .collect();
    Traffic {
        prompts,
        tenants,
        due,
        warmup,
    }
}

/// The measured window's requests, each at its due time.
fn plan(spec: &ServeSpec, traffic: &Traffic) -> Vec<Planned> {
    (0..traffic.prompts.len())
        .map(|i| Planned {
            due: traffic.due[i],
            request: client::generate_request(&request_body(
                spec,
                &traffic.prompts[i],
                traffic.tenants[i],
            )),
        })
        .collect()
}

fn request_body(spec: &ServeSpec, prompt: &[u32], tenant: Option<usize>) -> String {
    let ids: Vec<String> = prompt.iter().map(u32::to_string).collect();
    let adapter = tenant.map_or(String::new(), |t| format!(",\"adapter\":\"tenant{t}\""));
    format!(
        "{{\"prompt\":[{}],\"max_new_tokens\":{},\"stream\":true,\"deadline_ms\":{REQUEST_DEADLINE_MS}{adapter}}}",
        ids.join(","),
        spec.new_tokens
    )
}

/// A rank-4 LoRA adapter for `cfg` with a nonzero delta (`B` starts at 0).
fn lora_adapter(cfg: &ModelConfig, seed: u64) -> LoraAdapter {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = LlamaModel::new(
        cfg,
        LinearMode::LoRa {
            rank: 4,
            alpha: 8.0,
        },
        &mut rng,
    );
    for p in &mut m.params {
        if p.name.ends_with(".lora_b") {
            p.value = Matrix::randn(p.value.rows(), p.value.cols(), &mut rng);
        }
    }
    LoraAdapter::from_model(&m).expect("LoRA-mode source model")
}

/// What the reference check needs to replay a server's requests.
struct Replay {
    backend: DecodeBackend,
    registry: Arc<AdapterRegistry>,
    kv_capacity: usize,
}

/// A started server.
struct Server {
    front: Frontend,
    replay: Replay,
}

/// Builds the model, quantizes it or builds the adapters, starts the
/// front-end and sends the warm-up requests: everything a deployment
/// pays before its first user request.
fn start(
    spec: &ServeSpec,
    seed: u64,
    obs: Obs,
    warmup: &[(Vec<u32>, Option<usize>)],
) -> Result<Server, String> {
    let cfg = (spec.model)();
    let mut rng = Rng::seed_from_u64(seed ^ 0x5E4E);
    let model = Arc::new(LlamaModel::new(&cfg, LinearMode::Dense, &mut rng));
    let backend: DecodeBackend = match spec.trunk {
        Trunk::Exact => Arc::clone(&model).into(),
        Trunk::Int8 => QuantizedModel::from_model(&model).into(),
    };
    let registry = Arc::new(if spec.adapters == 0 {
        AdapterRegistry::empty()
    } else {
        AdapterRegistry::resident(
            (0..spec.adapters)
                .map(|i| {
                    (
                        format!("tenant{i}"),
                        lora_adapter(&cfg, seed ^ (0xADA0 + i as u64)),
                    )
                })
                .collect(),
        )
    });
    let kv_capacity = spec.prompt_len + spec.new_tokens;
    let sched = SchedConfig {
        max_active: 4,
        queue_cap: 64,
        prefill_chunk: spec.prefill_chunk,
        kv_capacity,
        prefix_cache_bytes: PREFIX_CACHE_BYTES,
    };
    let front = Frontend::start_multi(
        backend.clone(),
        sched,
        ServeConfig::default(),
        obs,
        Arc::clone(&registry),
    )
    .map_err(|e| format!("cannot bind the serving front-end: {e}"))?;
    let plan: Vec<Planned> = warmup
        .iter()
        .map(|(p, t)| Planned {
            due: Duration::ZERO,
            request: client::generate_request(&request_body(spec, p, *t)),
        })
        .collect();
    let warm = client::run(front.local_addr(), &plan, CLIENT_TIMEOUT);
    if let Some(bad) = warm.iter().find(|r| r.class != Class::Ok) {
        return Err(format!("warm-up request failed: {:?}", bad.class));
    }
    Ok(Server {
        front,
        replay: Replay {
            backend,
            registry,
            kv_capacity,
        },
    })
}

/// Replays every completed request through a cold single-slot scheduler
/// (no prefix cache, whole-prompt prefill) on the same backend and
/// adapters, across at most `nproc` threads, and compares tokens.
fn check_against_reference(
    spec: &ServeSpec,
    server: &Replay,
    traffic: &Traffic,
    records: &[Record],
) -> Result<(), String> {
    let todo: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].class == Class::Ok)
        .collect();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2);
    let chunk = todo.len().div_ceil(threads).max(1);
    let mismatches: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = todo
            .chunks(chunk)
            .map(|ids| {
                s.spawn(move || {
                    let cfg = SchedConfig {
                        max_active: 1,
                        queue_cap: ids.len(),
                        prefill_chunk: server.kv_capacity,
                        kv_capacity: server.kv_capacity,
                        prefix_cache_bytes: 0,
                    };
                    let mut sched = Scheduler::new_multi(
                        server.backend.clone(),
                        cfg,
                        Obs::disabled(),
                        Arc::clone(&server.registry),
                        Arc::new(ServeStats::default()),
                    );
                    let mut sched_ids = Vec::with_capacity(ids.len());
                    for &i in ids {
                        let adapter = traffic.tenants[i].map(|t| {
                            server
                                .registry
                                .id(&format!("tenant{t}"))
                                .expect("registered tenant")
                        });
                        let req = GenRequest {
                            prompt: traffic.prompts[i].clone(),
                            cfg: GenConfig {
                                max_new_tokens: spec.new_tokens,
                                ..GenConfig::default()
                            },
                            deadline: None,
                            adapter,
                        };
                        sched_ids.push(sched.submit(req).expect("reference admission"));
                    }
                    let mut results = sched.run_to_completion();
                    results.sort_by_key(|r| r.id);
                    let mut bad = Vec::new();
                    for (k, &i) in ids.iter().enumerate() {
                        let want = &results[sched_ids[k] as usize].tokens;
                        let rec = &records[i];
                        if &rec.tokens != want || rec.final_tokens.as_ref() != Some(want) {
                            bad.push(format!(
                                "request {i}: streamed {:?}, final {:?}, reference {want:?}",
                                rec.tokens, rec.final_tokens
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    match mismatches.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{} of {} completions differ from the cold single-slot reference; first: {first}",
            mismatches.len(),
            todo.len()
        )),
    }
}

/// What one serving phase measured.
pub struct ServeOutcome {
    pub setup_s: Vec<f64>,
    pub sent: usize,
    pub failed: usize,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub ttft_p50_ms: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the serving phase: `SETUPS` timed set-ups (the last one is kept),
/// `secs` seconds of scheduled traffic, drain, and the reference check.
/// With `trace`, the server writes its `Obs` trace to `trace_path`,
/// client spans go to `trace`, and per-layer numbers are filled in.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    secs: f64,
    trace: Option<(&mut Spans, &Path)>,
) -> Result<ServeOutcome, String> {
    let vocab = (spec.model)().vocab_size;
    let traffic = traffic(spec, seed, secs, vocab);
    let trace_path = trace.as_ref().map(|(_, p)| p.to_path_buf());
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut server: Option<(Server, Obs)> = None;
    for k in 0..SETUPS {
        let obs = match (&trace_path, k + 1 == SETUPS) {
            (Some(p), true) => {
                Obs::with_trace(p, usize::MAX).map_err(|e| format!("trace file: {e}"))?
            }
            _ => Obs::disabled(),
        };
        if let Some((old, _)) = server.take() {
            old.front.shutdown();
        }
        crate::stats::release_free_memory();
        let t = Instant::now();
        let started = start(spec, seed, obs.clone(), &traffic.warmup)?;
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some((started, obs));
    }
    let (server, obs) = server.expect("at least one set-up");

    // Ticks already in the trace belong to the warm-up.
    let warm_ticks = match &trace_path {
        Some(p) => {
            obs.flush().map_err(|e| format!("trace flush: {e}"))?;
            infer_steps(p)?.len()
        }
        None => 0,
    };
    let stats = server.front.stats();
    let load = |f: &std::sync::atomic::AtomicU64| f.load(Ordering::Relaxed);
    let before = [
        load(&stats.prefix_lookups),
        load(&stats.prefix_hits),
        load(&stats.prefix_hit_tokens),
        load(&stats.prefill_tokens),
        load(&stats.prefix_evictions),
        load(&stats.adapter_loads),
    ];

    let records = client::run(
        server.front.local_addr(),
        &plan(spec, &traffic),
        CLIENT_TIMEOUT,
    );
    let window_start = records.iter().map(|r| r.due).min().expect("non-empty plan");
    let window_end = records
        .iter()
        .map(|r| r.finished)
        .max()
        .expect("non-empty plan");

    let after = [
        load(&stats.prefix_lookups),
        load(&stats.prefix_hits),
        load(&stats.prefix_hit_tokens),
        load(&stats.prefill_tokens),
        load(&stats.prefix_evictions),
        load(&stats.adapter_loads),
    ];
    let delta: Vec<f64> = after
        .iter()
        .zip(&before)
        .map(|(a, b)| (a - b) as f64)
        .collect();

    // Every request ends in exactly one class, and the classes add up.
    let count = |c: Class| records.iter().filter(|r| r.class == c).count();
    let classes = [
        Class::Ok,
        Class::Shed,
        Class::Rejected,
        Class::Deadline,
        Class::Timeout,
        Class::Transport,
    ];
    let per_class: Vec<usize> = classes.iter().map(|&c| count(c)).collect();
    let sent = records.len();
    if per_class.iter().sum::<usize>() != sent {
        return Err("request outcome classes do not add up to the number sent".into());
    }
    let ok = per_class[0];
    let drain = server.front.shutdown();
    if drain.forced != 0 {
        return Err(format!(
            "{} requests still running after the drain deadline",
            drain.forced
        ));
    }
    for r in records.iter().filter(|r| r.class == Class::Ok) {
        if r.tokens.len() != spec.new_tokens {
            return Err(format!(
                "a completed request streamed {} tokens, expected {}",
                r.tokens.len(),
                spec.new_tokens
            ));
        }
    }
    check_against_reference(spec, &server.replay, &traffic, &records)?;

    // Latency over completed requests, timed from each request's due time.
    let oks: Vec<&Record> = records.iter().filter(|r| r.class == Class::Ok).collect();
    let ttft: Vec<f64> = oks.iter().filter_map(|r| r.ttft()).map(ms).collect();
    let itl: Vec<f64> = oks.iter().flat_map(|r| r.itl()).map(ms).collect();
    if !supports_percentile(ttft.len(), 0.9) || !supports_percentile(itl.len(), 0.99) {
        return Err(format!(
            "too few samples for the named percentiles: {} TTFT, {} ITL",
            ttft.len(),
            itl.len()
        ));
    }
    let lag: Vec<f64> = records.iter().map(|r| ms(r.lag())).collect();
    let lag_p99 = percentile(&lag, 0.99);
    if lag_p99 > MAX_LAG_P99_MS {
        return Err(format!(
            "generator ran late: p99 send lag {lag_p99:.2} ms exceeds {MAX_LAG_P99_MS} ms; the run is invalid"
        ));
    }
    let good = oks
        .iter()
        .filter(|r| {
            r.ttft().is_some_and(|t| ms(t) <= TTFT_LIMIT_MS)
                && r.itl().all(|g| ms(g) <= ITL_LIMIT_MS)
        })
        .count();
    let window = window_end
        .saturating_duration_since(window_start)
        .as_secs_f64();
    let ttft_p50 = percentile(&ttft, 0.5);
    // Reported per layer, not gated: on the INT8 workload its run-to-run
    // spread reached 0.28 of its median, above the largest bound (0.25).
    let itl_p99 = percentile(&itl, 0.99);
    eprintln!(
        "[serve] {sent} sent at {} req/s: ok {ok}, good {good}; {} TTFT and {} ITL samples",
        spec.rate,
        ttft.len(),
        itl.len()
    );
    let e2e = vec![
        Metric::new("ttft_p50_ms", ttft_p50, "ms"),
        Metric::new("ttft_p90_ms", percentile(&ttft, 0.9), "ms"),
        Metric::new("itl_p50_ms", percentile(&itl, 0.5), "ms"),
        Metric::new("goodput_rps", good as f64 / window, "1/s"),
    ];

    let mut layers = Vec::new();
    if let (Some((spans, _)), Some(path)) = (trace, &trace_path) {
        obs.flush().map_err(|e| format!("trace flush: {e}"))?;
        let events = read_trace(path)?;
        // Cross-check the client's tally against the front-end's own
        // per-request records.
        let served_ok = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ServeRequest { outcome, .. } if outcome == "done"))
            .count();
        if served_ok != ok + traffic.warmup.len() {
            return Err(format!(
                "front-end recorded {served_ok} completed requests, client saw {ok} (+ warm-up)"
            ));
        }
        let ticks: Vec<Tick> = infer_steps(path)?.into_iter().skip(warm_ticks).collect();
        let decode_ticks: Vec<&Tick> = ticks.iter().filter(|t| t.decode_rows > 0.0).collect();
        let over_ticks = |f: fn(&Tick) -> f64| mean(&ticks.iter().map(f).collect::<Vec<_>>());
        let over_decode =
            |f: fn(&Tick) -> f64| mean(&decode_ticks.iter().map(|t| f(t)).collect::<Vec<_>>());
        let prefill_rows: f64 = ticks.iter().map(|t| t.prefill_rows).sum();
        let prefill_ms: f64 = ticks.iter().map(|t| t.prefill_ms).sum();
        for (i, r) in records.iter().enumerate() {
            record_request_spans(spans, i as u64, r);
        }
        let by = spans.by_name();
        let mean_of = |name: &str| by.get(name).map_or(0.0, |l| l.mean_self_ms());
        layers.extend([
            Metric::new("infer.net.connect_ms", mean_of("infer.net.connect"), "ms"),
            Metric::new(
                "infer.frontend.admit_ms",
                mean_of("infer.frontend.admit"),
                "ms",
            ),
            Metric::new(
                "infer.first_token_wait_ms",
                mean_of("infer.first_token_wait"),
                "ms",
            ),
            Metric::new("infer.scheduler.tick_ms", over_ticks(|t| t.total_ms), "ms"),
            Metric::new(
                "infer.scheduler.decode_rows_per_tick",
                over_decode(|t| t.decode_rows),
                "rows",
            ),
            Metric::new(
                "infer.scheduler.queue_depth",
                over_ticks(|t| t.queue_depth),
                "requests",
            ),
            Metric::new(
                "nn.prefill_ms_per_token",
                ratio(prefill_ms, prefill_rows),
                "ms",
            ),
            Metric::new("nn.decode_ms_per_tick", over_decode(|t| t.decode_ms), "ms"),
            Metric::new("infer.prefix.hit_rate", ratio(delta[1], delta[0]), "ratio"),
            Metric::new(
                "infer.prefix.hit_token_share",
                ratio(delta[2], delta[2] + delta[3]),
                "ratio",
            ),
            Metric::new("infer.prefix.evictions", delta[4], "count"),
            Metric::new("nn.adapter.loads", delta[5], "count"),
            Metric::new("infer.failed.shed", per_class[1] as f64, "count"),
            Metric::new("infer.failed.rejected", per_class[2] as f64, "count"),
            Metric::new("infer.failed.deadline", per_class[3] as f64, "count"),
            Metric::new("infer.failed.timeout", per_class[4] as f64, "count"),
            Metric::new("infer.failed.transport", per_class[5] as f64, "count"),
            Metric::new("client.lag_ms_p99", lag_p99, "ms"),
            Metric::new("client.itl_p99_ms", itl_p99, "ms"),
        ]);
    }
    Ok(ServeOutcome {
        setup_s,
        sent,
        failed: sent - ok,
        e2e,
        layers,
        ttft_p50_ms: ttft_p50,
    })
}

/// One scheduler tick, from an `InferStep` event.
struct Tick {
    prefill_rows: f64,
    decode_rows: f64,
    queue_depth: f64,
    prefill_ms: f64,
    decode_ms: f64,
    total_ms: f64,
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every `InferStep` event in the trace at `path`.
fn infer_steps(path: &Path) -> Result<Vec<Tick>, String> {
    Ok(read_trace(path)?
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::InferStep {
                prefill_rows,
                decode_rows,
                queue_depth,
                prefill_ms,
                decode_ms,
                total_ms,
                ..
            } => Some(Tick {
                prefill_rows: prefill_rows as f64,
                decode_rows: decode_rows as f64,
                queue_depth: queue_depth as f64,
                prefill_ms: f64::from(prefill_ms),
                decode_ms: f64::from(decode_ms),
                total_ms: f64::from(total_ms),
            }),
            _ => None,
        })
        .collect())
}

/// One request's client-side spans: the request from its due time, and
/// under it connect, admission (request written → response head), the
/// wait for the first token, and the stream.
fn record_request_spans(spans: &mut Spans, id: u64, r: &Record) {
    let root = spans.record("client.request", None, Some(id), r.due, r.finished);
    let mut at = r.sent;
    let mut step = |spans: &mut Spans, name: &'static str, end: Option<Instant>| {
        if let Some(end) = end {
            spans.record(name, Some(root), Some(id), at, end);
            at = end;
        }
    };
    step(spans, "infer.net.connect", r.connected);
    step(spans, "infer.net.write", r.written);
    step(spans, "infer.frontend.admit", r.head);
    step(
        spans,
        "infer.first_token_wait",
        r.token_times.first().copied(),
    );
    step(spans, "infer.stream", Some(r.finished));
}

/// Capacity probe: offers far more than the server can take for `secs`
/// seconds and reports completed requests per second while backlogged.
pub fn calibrate(spec: &ServeSpec, seed: u64, secs: f64) -> Result<f64, String> {
    let probe = ServeSpec {
        rate: 400.0,
        ..spec.clone()
    };
    let vocab = (spec.model)().vocab_size;
    let traffic = traffic(&probe, seed, secs, vocab);
    let server = start(&probe, seed, Obs::disabled(), &traffic.warmup)?;
    let records = client::run(
        server.front.local_addr(),
        &plan(&probe, &traffic),
        CLIENT_TIMEOUT,
    );
    server.front.shutdown();
    let oks: Vec<&Record> = records.iter().filter(|r| r.class == Class::Ok).collect();
    let start = oks
        .iter()
        .map(|r| r.due)
        .min()
        .ok_or("no request completed")?;
    let end = oks
        .iter()
        .map(|r| r.finished)
        .max()
        .ok_or("no request completed")?;
    Ok(oks.len() as f64 / end.saturating_duration_since(start).as_secs_f64())
}
