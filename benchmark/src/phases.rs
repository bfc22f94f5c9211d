//! The timed phases. One round runs every phase once, in a fixed order,
//! so a slow spell of the host lands on every metric alike; each metric
//! is then the median over rounds.
//!
//! With tracing on, the digital phase and the robustness campaign run as
//! stage-by-stage mirrors of `PackedModel::classify_planes` and
//! `robustness::run_sweep` built from the same public calls, with a span
//! around each call; the checks prove the mirrors return exactly what the
//! real entry points return.

use std::hint::black_box;
use std::time::{Duration, Instant};

use aqfp_crossbar::faults::PatchJournal;
use aqfp_device::{DeviceRng, SeedableRng};
use aqfp_sc::{BitPlane, PackedMatrix};
use superbnn::deploy::{ActivationCache, DirtyChannels, PackedLayer, PackedModel};
use superbnn::robustness::{run_sweep, RobustnessReport, SweepConfig};
use superbnn::screening::{generate_probes, ScreenEngine, ScreeningConfig, ScreeningReport};
use superbnn_serve::{open_loop, LatencyHistogram, ServeConfig, Server};

use crate::trace::{Tracer, NO_ID};
use crate::workload::{sub_seed, Prepared, Workload, ROBUSTNESS_RATES};

/// With tracing on, the digital phase runs one in this many of its passes:
/// it records a span per sample and stage, and the full count would hold
/// millions of spans in memory.
pub const TRACED_DIGITAL_SHARE: usize = 10;

/// Repetitions per round of ATPG and the robustness sweep. Single calls of
/// these two spread more than the other phases' repetitions (each call
/// spawns its worker and builds its own activation cache), so every round
/// takes two samples of them.
pub const THREADED_REPEATS: usize = 2;

/// Word operations per second of the calibration kernel at the reference
/// host speed, about what it ran at on the host the reference figures were
/// taken on. Engine rates are reported at this speed: see [`HostSpeed`].
pub const REFERENCE_SPEED: f64 = 4.0e9;

/// Word operations of one calibration: about 8 ms on the reference host.
const CALIBRATION_WORDS: usize = 24_000_000;

/// Word operations per second of a fixed kernel owned by the benchmark
/// (XOR, rotate and popcount over a 4 KiB buffer, the same kind of work as
/// the engines' inner loops). Nothing in it depends on the program.
fn calibrate() -> f64 {
    let mut buf: Vec<u64> = (0..512u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let start = Instant::now();
    let mut acc = 0u64;
    for r in 0..(CALIBRATION_WORDS / buf.len()) as u64 {
        for (i, w) in buf.iter_mut().enumerate() {
            *w = (*w ^ (r + i as u64)).rotate_left(7);
            acc += u64::from(w.count_ones());
        }
        black_box(&buf);
    }
    black_box(acc);
    CALIBRATION_WORDS as f64 / start.elapsed().as_secs_f64()
}

/// The host's speed around each timed phase. On a shared host the speed of
/// a core moves by ±20 % from one minute to the next, and all phases of a
/// round move with it; a calibration kernel timed right before and right
/// after each phase measures that speed, and each phase's rate is scaled to
/// [`REFERENCE_SPEED`]. A change to the program moves only the phase, so it
/// shows in full; a slow spell of the host moves both and cancels.
struct HostSpeed {
    before: f64,
}

impl HostSpeed {
    fn new() -> Self {
        Self {
            before: calibrate(),
        }
    }

    /// `raw` (measured since the last call) at the reference host speed.
    fn scale(&mut self, raw: f64) -> f64 {
        let after = calibrate();
        let speed = (self.before + after) / 2.0;
        self.before = after;
        raw * REFERENCE_SPEED / speed
    }
}

/// One engine rate per repetition: as measured, and at the reference host
/// speed (the reported figure).
#[derive(Debug, Default)]
pub struct Series {
    pub raw: Vec<f64>,
    pub scaled: Vec<f64>,
}

/// The values of every timed round (the warm-up round is not recorded).
/// Each rate or latency is the median over them.
#[derive(Debug, Default)]
pub struct Figures {
    pub digital: Series,
    pub stochastic: Series,
    pub atpg: Series,
    pub screen: Series,
    pub robustness: Series,
    /// Per ladder rung, one entry per round.
    pub rungs: Vec<Vec<RungFigures>>,
}

/// What one rung of the serving ladder measured in one round.
#[derive(Debug, Clone)]
pub struct RungFigures {
    pub sent: u64,
    pub answered: u64,
    pub refused: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Completed requests per second of the run's wall time.
    pub throughput: f64,
    /// How long after the last scheduled send the run ended.
    pub drain_us: f64,
    /// Median client latency minus median server latency: the part of a
    /// request's wait spent before it reached the queue, mostly the
    /// generator running late.
    pub lateness_us: f64,
    /// Server-side (enqueue to answer) latency and batching.
    pub server_p50_us: f64,
    pub server_p99_us: f64,
    pub mean_batch: f64,
    pub batches: f64,
}

/// What the last round produced, kept for the output checks.
pub struct Outputs {
    pub digital: Vec<(usize, Vec<f32>)>,
    pub atpg: Option<ScreeningReport>,
    pub sweep: RobustnessReport,
    /// Per-trial accuracies of the traced robustness mirror.
    pub mirror_trials: Option<Vec<f64>>,
    /// Dies the last screening repetition flagged.
    pub flagged_dies: usize,
}

/// Per-round operation counts and failures.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// The serving pool every rung runs on: one worker, one replica, the
/// default batching policy and queue bound. Only a rung past the worker's
/// capacity fills the queue; its refusals fail the SLO, and bounding the
/// backlog keeps the process's peak memory independent of how far it grows.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        replicas: 1,
        ..ServeConfig::default()
    }
}

/// The digital campaign of the robustness phase.
pub fn sweep_config(w: &Workload, seed: u64) -> SweepConfig {
    SweepConfig::stuck_cell_grid(&ROBUSTNESS_RATES, w.robustness_trials, sub_seed(seed, 7))
        .expect("the rates are probabilities")
        .with_eval_samples(Some(w.eval_samples))
        .with_workers(1)
        .expect("one worker is valid")
}

/// The ATPG run of the screening phase.
pub fn screening_config(w: &Workload, seed: u64) -> ScreeningConfig {
    ScreeningConfig::default()
        .with_fault_classes(w.atpg_classes)
        .with_max_vectors(w.max_vectors)
        .with_seed(sub_seed(seed, 6))
        .with_workers(1)
        .with_engine(ScreenEngine::Delta)
}

/// `units` of work over the time `busy` took, per second.
fn rate(units: usize, busy: Duration) -> f64 {
    units as f64 / busy.as_secs_f64()
}

/// Wall time of `f`.
fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Runs one round of every phase. Round 0 warms caches: its operations
/// count, its figures are not recorded.
#[allow(clippy::too_many_arguments)]
pub fn round(
    w: &Workload,
    p: &Prepared,
    seed: u64,
    index: u64,
    t: &mut Tracer,
    work: &mut PackedModel,
    fig: &mut Figures,
    ops: &mut Ops,
) -> Outputs {
    let pinned = crate::affinity::pin_here();
    let mut host = HostSpeed::new();
    let mut record = |series: &mut Series, raw: f64| {
        let scaled = host.scale(raw);
        if index > 0 {
            series.raw.push(raw);
            series.scaled.push(scaled);
        }
    };

    // Digital engine over the pre-packed eval planes.
    let mut digital = Vec::new();
    let passes = if t.enabled() {
        w.digital_passes.div_ceil(TRACED_DIGITAL_SHARE)
    } else {
        w.digital_passes
    };
    let units = passes * p.planes.len();
    let busy = timed(|| {
        for _ in 0..passes {
            digital = if t.enabled() {
                traced_pipeline(&p.packed, &p.planes, t)
            } else {
                p.packed.classify_planes(black_box(&p.planes))
            };
            black_box(&digital);
        }
    });
    record(&mut fig.digital, rate(units, busy));
    ops.attempted += units as u64;

    // Stochastic engine in counter mode.
    let units = p.planes.len() * w.stochastic_passes;
    let busy = timed(|| {
        for pass in 0..w.stochastic_passes {
            let stream = sub_seed(seed, (100 + index) << 16 | pass as u64);
            black_box(t.span("stochastic.total", NO_ID, |_| {
                p.packed.accuracy_stochastic_planes_ctr(
                    &p.tables,
                    black_box(&p.planes),
                    &p.eval.labels,
                    stream,
                )
            }));
        }
    });
    record(&mut fig.stochastic, rate(units, busy));
    ops.attempted += units as u64;

    // ATPG probe generation with the delta engine.
    let cfg = screening_config(w, seed);
    let mut atpg = None;
    for _ in 0..THREADED_REPEATS {
        let start = Instant::now();
        let report = t.span("screening.atpg", NO_ID, |_| {
            generate_probes(&p.packed, &p.candidates, &cfg)
        });
        let busy = start.elapsed();
        ops.attempted += 1;
        atpg = match report {
            Ok(r) => {
                record(&mut fig.atpg, rate(r.targeted, busy));
                Some(r)
            }
            Err(e) => {
                eprintln!("ATPG failed: {e}");
                ops.failed += 1;
                None
            }
        };
    }

    // Replay of the probe set on the faulted dies; the fault patch and
    // its revert stay outside the timed call.
    let mut flagged_dies = 0;
    if let Some(report) = &atpg {
        let mut journal = PatchJournal::new();
        let mut busy = Duration::ZERO;
        for (d, draws) in p.dies.iter().enumerate() {
            work.apply_draws_journaled(draws, &mut journal);
            let start = Instant::now();
            let outcome = t.span("screening.replay", d as u64, |_| {
                report.probes.screen(black_box(work))
            });
            busy += start.elapsed();
            work.revert_faults(&mut journal);
            flagged_dies += usize::from(!outcome.clean());
        }
        record(&mut fig.screen, rate(p.dies.len(), busy));
        ops.attempted += p.dies.len() as u64;
    }

    // Digital robustness campaign.
    let cfg = sweep_config(w, seed);
    let trials = cfg.grid.len() * cfg.trials;
    let mut sweep = None;
    let mut mirror_trials = None;
    for _ in 0..THREADED_REPEATS {
        let busy = if t.enabled() {
            timed(|| mirror_trials = Some(traced_sweep(work, &p.eval, &cfg, t)))
        } else {
            timed(|| sweep = Some(run_sweep(&p.packed, &p.eval, &cfg)))
        };
        record(&mut fig.robustness, rate(trials, busy));
        ops.attempted += trials as u64;
    }
    // With tracing on, the report the checks compare the mirror against
    // is produced outside the timed interval.
    let sweep = sweep.unwrap_or_else(|| run_sweep(&p.packed, &p.eval, &cfg));

    drop(pinned);

    // Serving: one open-loop run per rung of the fixed ladder.
    fig.rungs.resize(w.serve_ladder.len(), Vec::new());
    for (i, &rate) in w.serve_ladder.iter().enumerate() {
        let rung = serve_rung(w, p, rate, t);
        ops.attempted += rung.sent;
        ops.failed += rung.sent - rung.answered - rung.refused;
        if index > 0 {
            fig.rungs[i].push(rung);
        }
    }

    Outputs {
        digital,
        atpg,
        sweep,
        mirror_trials,
        flagged_dies,
    }
}

fn serve_rung(w: &Workload, p: &Prepared, rate: f64, t: &mut Tracer) -> RungFigures {
    let server = Server::start(p.served.clone(), serve_config()).expect("the config is valid");
    let n = w.rung_requests(rate);
    let report = t.span("serve.rung", NO_ID, |_| {
        open_loop(&server, &p.planes, rate, n, 1)
    });
    let server = server.shutdown();
    let scheduled = (n - 1) as f64 / rate;
    RungFigures {
        sent: report.offered,
        answered: report.completed,
        refused: report.rejected,
        p50_us: quantile_us(&report.latency, 0.50),
        p99_us: quantile_us(&report.latency, 0.99),
        throughput: report.throughput_rps,
        drain_us: (report.wall.as_secs_f64() - scheduled).max(0.0) * 1e6,
        lateness_us: quantile_us(&report.latency, 0.5) - quantile_us(&server.latency, 0.5),
        server_p50_us: quantile_us(&server.latency, 0.50),
        server_p99_us: quantile_us(&server.latency, 0.99),
        mean_batch: server.mean_batch,
        batches: server.batches as f64,
    }
}

/// One rung's figures over the timed rounds: the median of each, and whether the rung meets the workload's SLO —
/// median p99 and median drain within the p99 limit, and every request of
/// every round answered, none refused.
pub struct RungSummary {
    pub rate: f64,
    pub median: RungFigures,
    pub meets_slo: bool,
}

/// Summarizes every ladder rung.
pub fn ladder(w: &Workload, fig: &Figures) -> Vec<RungSummary> {
    w.serve_ladder
        .iter()
        .zip(&fig.rungs)
        .map(|(&rate, rounds)| {
            let timed = rounds.as_slice();
            let med = |f: fn(&RungFigures) -> f64| {
                crate::stats::median(&timed.iter().map(f).collect::<Vec<_>>())
            };
            let median = RungFigures {
                sent: timed.iter().map(|r| r.sent).sum(),
                answered: timed.iter().map(|r| r.answered).sum(),
                refused: timed.iter().map(|r| r.refused).sum(),
                p50_us: med(|r| r.p50_us),
                p99_us: med(|r| r.p99_us),
                throughput: med(|r| r.throughput),
                drain_us: med(|r| r.drain_us),
                lateness_us: med(|r| r.lateness_us),
                server_p50_us: med(|r| r.server_p50_us),
                server_p99_us: med(|r| r.server_p99_us),
                mean_batch: med(|r| r.mean_batch),
                batches: med(|r| r.batches),
            };
            let meets_slo = median.refused == 0
                && median.answered == median.sent
                && median.p99_us <= w.serve_p99_limit_us
                && median.drain_us <= w.serve_p99_limit_us;
            RungSummary {
                rate,
                median,
                meets_slo,
            }
        })
        .collect()
}

/// The `q`-quantile of a serving histogram in µs, interpolated linearly
/// inside the histogram's log-linear buckets.
///
/// `LatencyHistogram::quantile` reports a bucket's lower bound, which
/// moves in steps of 1/16 of a power of two; the steps would show as
/// jumps of up to 6 % between runs. The histogram's own quantiles give
/// the bucket of every rank, and the samples of one bucket are spread
/// evenly over its width.
pub fn quantile_us(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let floor_of = |r: u64| h.quantile((r as f64 - 0.5) / n as f64).as_nanos() as u64;
    let floor = floor_of(rank);
    // The ranks [first, last] that share this bucket.
    let (mut first, mut last) = (rank, rank);
    while first > 1 && floor_of(first - 1) == floor {
        first -= 1;
    }
    while last < n && floor_of(last + 1) == floor {
        last += 1;
    }
    let width = if floor < 16 {
        1
    } else {
        1u64 << (63 - floor.leading_zeros() - 4)
    };
    let frac = (rank - first) as f64 + 0.5;
    (floor as f64 + width as f64 * frac / (last - first + 1) as f64) / 1e3
}

/// The span name of a per-sample pipeline stage.
fn stage_span(layer: &PackedLayer) -> &'static str {
    match layer {
        PackedLayer::Conv(_) => "pipeline.conv",
        PackedLayer::Pool(_) => "pipeline.pool",
        PackedLayer::Flatten => "pipeline.flatten",
        PackedLayer::Linear(_) => "pipeline.linear",
    }
}

/// `PackedModel::classify_planes` stage by stage: conv, pool and flatten
/// stages fold each plane with `PackedLayer::forward`, linear stages run
/// the whole batch through `PackedTiledMatrix::forward_matrix`, and the
/// head scores each final plane with `DeployedClassifier::scores_plane`.
pub fn traced_pipeline(
    m: &PackedModel,
    planes: &[BitPlane],
    t: &mut Tracer,
) -> Vec<(usize, Vec<f32>)> {
    let n = planes.len();
    let mut acts = planes.to_vec();
    let mut shape = m.input_shape();
    for layer in m.layers() {
        match layer {
            PackedLayer::Linear(l) if n > 1 => {
                acts = t.span("pipeline.linear", NO_ID, |_| {
                    let out = l.matrix().forward_matrix(&PackedMatrix::from_planes(&acts));
                    (0..n)
                        .map(|s| {
                            let mut plane = BitPlane::zeros(out.rows());
                            for c in 0..out.rows() {
                                if out.get(c, s) {
                                    plane.set(c, true);
                                }
                            }
                            plane
                        })
                        .collect()
                });
                shape = layer.out_shape(shape);
            }
            _ => {
                let name = stage_span(layer);
                for (s, plane) in acts.iter_mut().enumerate() {
                    let taken = std::mem::replace(plane, BitPlane::zeros(0));
                    *plane = t.span(name, s as u64, |_| layer.forward(taken, shape).0);
                }
                shape = layer.out_shape(shape);
            }
        }
    }
    acts.iter()
        .enumerate()
        .map(|(s, plane)| {
            t.span("pipeline.head", s as u64, |_| {
                let scores = m.classifier().scores_plane(plane);
                (argmax(&scores), scores)
            })
        })
        .collect()
}

/// Index of the highest score, ties to the later class, as the deploy
/// engine's read-out does.
pub fn argmax(scores: &[f32]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("at least one class")
}

/// `robustness::run_sweep` for a digital campaign on one worker, trial by
/// trial: the fault journal (`draw_faults`, `apply_draws_journaled`,
/// `revert_faults`) inside `faults.patch` spans, the evaluation (the
/// fault-cone delta engine below a quarter of the channels, the full
/// forward above) inside `robustness.eval` spans. Returns each trial's
/// accuracy in trial order.
pub fn traced_sweep(
    m: &mut PackedModel,
    data: &bnn_datasets::Dataset,
    cfg: &SweepConfig,
    t: &mut Tracer,
) -> Vec<f64> {
    let n = cfg.eval_samples.map_or(data.len(), |k| k.min(data.len()));
    let planes: Vec<BitPlane> = (0..n)
        .map(|i| superbnn::deploy::BitMap::from_tensor_sample(&data.images, i).to_plane())
        .collect();
    let labels = &data.labels[..n];
    let cache = t.span("robustness.cache", NO_ID, |_| {
        ActivationCache::new(m, &planes)
    });
    let channels: usize = m
        .layers()
        .iter()
        .filter_map(|l| l.matrix().map(|x| x.out()))
        .sum();
    let cutoff = channels / 4;
    let mut journal = PatchJournal::new();
    let mut accuracies = Vec::with_capacity(cfg.grid.len() * cfg.trials);
    for trial in 0..cfg.grid.len() * cfg.trials {
        let seed = cfg.campaign_seed ^ trial as u64;
        let draws = t.span("faults.patch", trial as u64, |_| {
            let mut rng = DeviceRng::seed_from_u64(seed);
            let draws = m.draw_faults(&cfg.grid[trial / cfg.trials], &mut rng);
            m.apply_draws_journaled(&draws, &mut journal);
            draws
        });
        let dirty = DirtyChannels::from_draws(m, &draws);
        t.record_count("robustness.dirty_channels", dirty.total() as u64);
        let acc = t.span("robustness.eval", trial as u64, |_| {
            if dirty.total() <= cutoff {
                m.delta_accuracy_planes(&cache, &dirty, labels)
            } else {
                m.accuracy_planes(&planes, labels)
            }
        });
        t.span("faults.patch", trial as u64, |_| {
            m.revert_faults(&mut journal)
        });
        accuracies.push(acc);
    }
    accuracies
}
