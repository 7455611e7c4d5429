//! Training phase: APOLLO pre-training of the tiny-350m proxy, serially or
//! through `pretrain_ddp`, repeated in fixed-step episodes.
//!
//! Untraced episodes call `pretrain` / `pretrain_ddp` as a user would. The
//! traced serial episode runs the same loop by hand from the layers' public
//! functions, with a span around each call, and must reproduce the
//! untraced per-step losses bit for bit.

use std::path::Path;
use std::time::Instant;

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig, ParamKind};
use apollo_obs::{read_trace, Obs, TraceEvent};
use apollo_optim::memory::MethodSpec;
use apollo_optim::{Apollo, Optimizer, ParamUpdate};
use apollo_tensor::Rng;
use apollo_train::{
    eval_perplexity, pretrain, pretrain_ddp, DdpConfig, LrSchedule, ResilienceConfig, RunLog,
    TrainConfig,
};

use crate::spans::Spans;
use crate::stats::{mean, median, percentile};
use crate::Metric;

/// How the optimizer step is executed.
#[derive(Debug, Clone, Copy)]
pub enum TrainLoop {
    /// `pretrain`: one optimizer instance, 1 kernel thread.
    Serial,
    /// `pretrain_ddp`: 2 replicas × 1 kernel thread over 4 virtual slots,
    /// one APOLLO instance per parameter, sharded across replicas.
    Ddp2,
}

const BATCH: usize = 4;
const SEQ: usize = 64;
/// The fixed step budget of one episode; `eval_ppl` is measured after it.
pub const STEPS: usize = 20;
/// Episodes per run. A fixed count keeps the work (and the threads the
/// `pretrain_ddp` starts) the same in every run.
const EPISODES: usize = 10;
const EVAL_SEQS: usize = 64;
const REPLICAS: usize = 2;
const VIRTUAL_SLOTS: usize = 4;
const REFRESH: usize = 200;
const APOLLO_SEED: u64 = 0xA90110;

fn model_config() -> ModelConfig {
    ModelConfig::tiny_350m()
}

fn rank() -> usize {
    model_config().default_rank()
}

/// The loops run no evaluation of their own (`eval_seqs: 0`); the
/// benchmark evaluates the trained model afterwards, outside the timing.
fn train_config() -> TrainConfig {
    TrainConfig {
        eval_seqs: 0,
        ..TrainConfig::quick(STEPS)
    }
}

fn held_out_ppl(model: &LlamaModel, batcher: &LmBatcher) -> Result<f32, String> {
    eval_perplexity(model, batcher, EVAL_SEQS).ok_or_else(|| "empty validation set".to_string())
}

/// Model and data for one episode. The workload seed draws the
/// initialization; the corpus is the repository's fixed synthetic language.
fn build(seed: u64) -> (LlamaModel, LmBatcher) {
    let cfg = model_config();
    let mut rng = Rng::seed_from_u64(seed ^ 0x11A7);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    (model, LmBatcher::new(corpus, BATCH, SEQ))
}

fn serial_optimizer() -> Apollo {
    Apollo::new(rank(), REFRESH)
}

/// The per-parameter factory whose instances derive exactly the state the
/// serial optimizer derives for the same parameter.
fn ddp_factory(i: usize) -> Box<dyn Optimizer> {
    Box::new(Apollo::new(rank(), REFRESH).with_seed(APOLLO_SEED + i as u64))
}

fn ddp_config() -> DdpConfig {
    DdpConfig {
        replicas: REPLICAS,
        virtual_slots: VIRTUAL_SLOTS,
        threads_per_replica: 1,
    }
}

/// Table 1's optimizer-state prediction for the model's weight shapes.
fn predicted_state_bytes(model: &LlamaModel) -> usize {
    let shapes: Vec<(usize, usize, bool)> = model
        .params
        .iter()
        .filter(|p| p.trainable)
        .map(|p| {
            (
                p.value.rows(),
                p.value.cols(),
                p.kind == ParamKind::Projectable,
            )
        })
        .collect();
    MethodSpec::Apollo { rank: rank() }.state_bytes(&shapes) as usize
}

/// Matmul FLOPs of one forward pass over `seqs` sequences, from the layer
/// shapes: attention and MLP projections, the two attention products, and
/// the LM head. Backward is counted as twice the forward.
fn train_flops(seqs: usize) -> f64 {
    let c = model_config();
    let (t, h, i, v) = (seqs * SEQ, c.hidden, c.intermediate, c.vocab_size);
    let per_layer = 8 * t * h * h + 4 * seqs * SEQ * SEQ * h + 6 * t * h * i;
    3.0 * (c.n_layers * per_layer + 2 * t * h * v) as f64
}

/// One untraced episode's result.
struct Episode {
    setup_s: f64,
    train_s: f64,
    log: RunLog,
    ppl: f32,
}

/// Builds and trains one episode, timing the set-up and the training loop,
/// then evaluates the trained model.
fn episode(train_loop: TrainLoop, seed: u64, obs: &Obs) -> Result<Episode, String> {
    crate::stats::release_free_memory();
    let cfg = train_config();
    let t = Instant::now();
    let (mut model, mut batcher) = build(seed);
    let mut opt = serial_optimizer();
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let log = match train_loop {
        TrainLoop::Serial => pretrain(&mut model, &mut opt, &mut batcher, &cfg),
        TrainLoop::Ddp2 => {
            pretrain_ddp(
                &mut model,
                &ddp_factory,
                &batcher,
                &cfg,
                &ddp_config(),
                &ResilienceConfig::default(),
                obs,
            )
            .log
        }
    };
    let train_s = t.elapsed().as_secs_f64();
    let ppl = held_out_ppl(&model, &batcher)?;
    if log.train_losses.len() != STEPS {
        return Err(format!(
            "{} losses recorded for {STEPS} steps",
            log.train_losses.len()
        ));
    }
    let predicted = predicted_state_bytes(&model);
    if log.state_bytes != predicted {
        return Err(format!(
            "optimizer state is {} bytes, Table 1 predicts {predicted}",
            log.state_bytes
        ));
    }
    Ok(Episode {
        setup_s,
        train_s,
        log,
        ppl,
    })
}

/// What one training phase measured.
pub struct TrainOutcome {
    pub setup_s: Vec<f64>,
    pub steps: usize,
    pub failed_steps: usize,
    pub e2e: Vec<Metric>,
    /// Per-step loss bits and held-out perplexity of the first episode.
    losses: Vec<u32>,
    ppl: f32,
    /// Seconds per trained step of the median episode, which a single
    /// traced episode is compared to.
    median_step_s: f64,
}

fn loss_bits(log: &RunLog) -> Vec<u32> {
    log.train_losses.iter().map(|&(_, l)| l.to_bits()).collect()
}

/// Runs `EPISODES` episodes, which must agree bit for bit.
pub fn run(train_loop: TrainLoop, seed: u64) -> Result<TrainOutcome, String> {
    let episodes = (0..EPISODES)
        .map(|_| episode(train_loop, seed, &Obs::disabled()))
        .collect::<Result<Vec<_>, _>>()?;
    let (first, ppl) = (&episodes[0].log, episodes[0].ppl);
    for e in &episodes[1..] {
        if loss_bits(&e.log) != loss_bits(first) || e.ppl.to_bits() != ppl.to_bits() {
            return Err("repeated episodes of one seed diverged".into());
        }
    }
    let steps = episodes.len() * STEPS;
    // The faster-quartile episode: other tenants of the host slow it in
    // bursts that last whole episodes, and the slower episodes absorb them.
    let episode_s: Vec<f64> = episodes.iter().map(|e| e.train_s).collect();
    let step_s = percentile(&episode_s, 0.25) / STEPS as f64;
    let failed_steps = episodes
        .iter()
        .flat_map(|e| &e.log.train_losses)
        .filter(|(_, l)| !l.is_finite())
        .count();
    eprintln!(
        "[train] {} episodes of {STEPS} steps: {:.2} ms/step, ppl {}",
        episodes.len(),
        step_s * 1e3,
        ppl
    );
    Ok(TrainOutcome {
        setup_s: episodes.iter().map(|e| e.setup_s).collect(),
        steps,
        failed_steps,
        e2e: vec![
            Metric::new("train_tok_s", (BATCH * SEQ) as f64 / step_s, "tok/s"),
            Metric::new("eval_ppl", f64::from(ppl), "ppl"),
            Metric::new("optimizer_state_bytes", first.state_bytes as f64, "bytes"),
        ],
        losses: loss_bits(first),
        ppl,
        median_step_s: median(&episode_s) / STEPS as f64,
    })
}

/// One traced episode after `untraced`: the per-layer split, checked to
/// reproduce the untraced losses, and the traced-over-untraced step time.
pub fn traced(
    train_loop: TrainLoop,
    seed: u64,
    untraced: &TrainOutcome,
    spans: &mut Spans,
    obs_path: &Path,
) -> Result<Vec<Metric>, String> {
    let mut layers = match train_loop {
        TrainLoop::Serial => traced_serial(seed, spans, untraced)?,
        TrainLoop::Ddp2 => traced_ddp(seed, obs_path, untraced)?,
    };
    let traced_step_ms = layers
        .iter()
        .find(|m| m.name == "train.step_ms")
        .map_or(f64::NAN, |m| m.value);
    layers.push(Metric::new(
        "trace_overhead.train",
        traced_step_ms / (untraced.median_step_s * 1e3),
        "ratio",
    ));
    Ok(layers)
}

/// The serial loop of `pretrain` rebuilt from public calls, with a span
/// around each layer: `LmBatcher::next_batch` (data), `build_loss` (nn),
/// `Graph::backward` + `collect_grads` + freeing the graph (autograd), and
/// `Optimizer::step` (optim).
fn traced_serial(seed: u64, spans: &mut Spans, want: &TrainOutcome) -> Result<Vec<Metric>, String> {
    let cfg = train_config();
    let (mut model, mut batcher) = build(seed);
    let mut opt = serial_optimizer();
    let schedule = LrSchedule::paper_default(cfg.lr, cfg.steps);
    let mut losses = Vec::with_capacity(STEPS);
    for step in 0..STEPS {
        let root = spans.begin("train.step", None);
        let (tokens, targets) = spans.time("data.next_batch", root, || batcher.next_batch());
        let (mut graph, loss_id, pnodes) = spans.time("nn.forward", root, || {
            model.build_loss(&tokens, &targets, BATCH)
        });
        losses.push(graph.value(loss_id).get(0, 0).to_bits());
        let grads = spans.time("autograd.backward", root, || {
            graph.backward(loss_id);
            let grads = model.collect_grads(&graph, &pnodes);
            drop(graph);
            grads
        });
        spans.time("optim.step", root, || {
            let mut updates: Vec<ParamUpdate<'_>> = model
                .params
                .iter_mut()
                .zip(&grads)
                .filter_map(|(p, g)| match (p.trainable, g) {
                    (true, Some(grad)) => Some(ParamUpdate {
                        name: &p.name,
                        value: &mut p.value,
                        grad,
                        projectable: p.kind == ParamKind::Projectable,
                    }),
                    _ => None,
                })
                .collect();
            opt.step(&mut updates, schedule.lr_at(step));
        });
        spans.end(root);
    }
    if losses != want.losses || held_out_ppl(&model, &batcher)?.to_bits() != want.ppl.to_bits() {
        return Err("traced training loop differs from the untraced pretrain run".into());
    }
    let by = spans.by_name();
    let ms = |name: &str| by.get(name).map_or(0.0, |l| l.total_ms / l.count as f64);
    let step_ms = ms("train.step");
    let parts =
        ms("data.next_batch") + ms("nn.forward") + ms("autograd.backward") + ms("optim.step");
    let coverage = parts / step_ms;
    if coverage < 0.95 {
        return Err(format!(
            "layer spans cover {:.1}% of the step, below 95%",
            coverage * 100.0
        ));
    }
    Ok(vec![
        Metric::new("train.step_ms", step_ms, "ms"),
        Metric::new("train.span_coverage", coverage, "ratio"),
        Metric::new("data.next_batch_ms", ms("data.next_batch"), "ms"),
        Metric::new("nn.forward_ms", ms("nn.forward"), "ms"),
        Metric::new("autograd.backward_ms", ms("autograd.backward"), "ms"),
        Metric::new(
            "tensor.train_gflops",
            train_flops(BATCH) / ((ms("nn.forward") + ms("autograd.backward")) * 1e6),
            "GFLOP/s",
        ),
        Metric::new("optim.step_ms", ms("optim.step"), "ms"),
        Metric::new("optim.step_share", ms("optim.step") / step_ms, "ratio"),
        Metric::new("train.ddp.compute_ms", 0.0, "ms"),
        Metric::new("train.ddp.sync_ms", 0.0, "ms"),
        Metric::new("train.ddp.imbalance", 0.0, "ratio"),
    ])
}

/// DDP has no public call boundary per replica phase, so the per-layer
/// split comes from `pretrain_ddp`'s own `StepPhases` events (written by the
/// leader replica). The step's wall time is taken from outside the call;
/// what the leader's phases do not cover is synchronisation.
fn traced_ddp(seed: u64, path: &Path, want: &TrainOutcome) -> Result<Vec<Metric>, String> {
    let obs = Obs::with_trace(path, usize::MAX).map_err(|e| format!("trace file: {e}"))?;
    let ep = episode(TrainLoop::Ddp2, seed, &obs)?;
    if loss_bits(&ep.log) != want.losses || ep.ppl.to_bits() != want.ppl.to_bits() {
        return Err("traced DDP run differs from the untraced run".into());
    }
    let phases: Vec<[f64; 5]> = read_trace(path)?
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::StepPhases {
                batch_ms,
                forward_ms,
                backward_ms,
                optimizer_ms,
                total_ms,
                ..
            } => Some([batch_ms, forward_ms, backward_ms, optimizer_ms, total_ms].map(f64::from)),
            _ => None,
        })
        .collect();
    if phases.len() != STEPS {
        return Err(format!(
            "{} StepPhases events for {STEPS} steps",
            phases.len()
        ));
    }
    let col = |k: usize| mean(&phases.iter().map(|p| p[k]).collect::<Vec<_>>());
    let (data, fwd, bwd, opt) = (col(0), col(1), col(2), col(3));
    let step_ms = ep.train_s * 1e3 / STEPS as f64;
    let compute = data + fwd + bwd + opt;
    let sync = (step_ms - compute).max(0.0);
    let leader_seqs = BATCH / VIRTUAL_SLOTS * (VIRTUAL_SLOTS / REPLICAS);
    Ok(vec![
        Metric::new("train.step_ms", step_ms, "ms"),
        Metric::new("train.span_coverage", compute / step_ms, "ratio"),
        Metric::new("data.next_batch_ms", data, "ms"),
        Metric::new("nn.forward_ms", fwd, "ms"),
        Metric::new("autograd.backward_ms", bwd, "ms"),
        Metric::new(
            "tensor.train_gflops",
            train_flops(leader_seqs) / ((fwd + bwd) * 1e6),
            "GFLOP/s",
        ),
        Metric::new("optim.step_ms", opt, "ms"),
        Metric::new("optim.step_share", opt / step_ms, "ratio"),
        Metric::new("train.ddp.compute_ms", compute, "ms"),
        Metric::new("train.ddp.sync_ms", sync, "ms"),
        Metric::new("train.ddp.imbalance", sync / compute, "ratio"),
    ])
}
