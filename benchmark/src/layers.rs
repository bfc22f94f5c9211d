//! Per-layer metrics of the traced run.
//!
//! Layers are named after the program's modules. Times come from the
//! spans recorded around calls into each layer (self time: a span minus
//! its children); work counts come from the public stage geometry and
//! from counts recorded at the same call boundaries.

use std::hint::black_box;

use aqfp_device::{DeviceRng, SeedableRng, VariationModel};
use aqfp_sc::bitplane::xnor_ones_range;
use aqfp_sc::{random_probe_plane, BitPlane, CounterStream, PackedMatrix};
use superbnn::deploy::{DirtyChannels, PackedLayer, PackedTiledMatrix};
use superbnn::screening::{fault_universe, ScreeningReport};

use crate::trace::{Tracer, NO_ID};
use crate::workload::{sub_seed, Prepared, Workload};

/// Words each stage width's kernel measurement XNORs.
const KERNEL_WORDS: usize = 4_000_000;
/// Calls of each GEMM batch size.
const GEMM_CALLS: usize = 400;
/// Passes over the stochastic samples through the linear stages.
const STOCHASTIC_PASSES: usize = 10;
/// Calls of the serving batch kernel.
const SERVE_COMPUTE_CALLS: usize = 200;

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Figures the traced run measured outside the spans.
pub struct RunInfo<'a> {
    /// Rounds run, the warm-up round included (spans cover all of them).
    pub rounds: u64,
    pub atpg: Option<&'a ScreeningReport>,
    pub server_p50_us: f64,
    pub server_p99_us: f64,
    pub mean_batch: f64,
    pub batches: f64,
    pub generator_lag_p99_us: f64,
}

/// Runs the layer probes that no timed phase covers: the XNOR–popcount
/// kernel ceiling, the linear GEMM at batch 1 and 64, the stochastic
/// linear stages, the fault-cone delta engine per fault class, and the
/// serving batch kernel at the observed mean batch.
pub fn probes(w: &Workload, p: &Prepared, seed: u64, mean_batch: f64, t: &mut Tracer) {
    let mut rng = DeviceRng::seed_from_u64(sub_seed(seed, 20));

    for m in p.packed.layers().iter().filter_map(PackedLayer::matrix) {
        let bits = m.fan_in();
        let words = bits.div_ceil(64);
        let a = random_probe_plane(bits, 0.5, &mut rng);
        let b = random_probe_plane(bits, 0.5, &mut rng);
        let reps = (KERNEL_WORDS / words).max(1);
        t.span("kernel.xnor", NO_ID, |_| {
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += xnor_ones_range(black_box(a.words()), black_box(b.words()), 0, bits);
            }
            black_box(acc)
        });
        t.record_count("kernel.words", (reps * words) as u64);
    }

    if let Some(m) = widest_linear(p) {
        for (name, rows) in [("packed.gemm_b1", 1usize), ("packed.gemm_b64", 64)] {
            let planes: Vec<BitPlane> = (0..rows)
                .map(|_| random_probe_plane(m.fan_in(), 0.5, &mut rng))
                .collect();
            let batch = PackedMatrix::from_planes(&planes);
            for _ in 0..GEMM_CALLS {
                t.span(name, NO_ID, |_| {
                    black_box(m.forward_matrix(black_box(&batch)))
                });
            }
        }
    }

    // Each linear stage fed the digital activations it sees in the
    // pipeline, one counter stream per sample.
    let inputs = linear_inputs(p);
    let root = CounterStream::from_seed(sub_seed(seed, 21));
    for (m, acts) in &inputs {
        let tables = m.stochastic_tables(&VariationModel::nominal());
        for _ in 0..STOCHASTIC_PASSES {
            for (i, act) in acts.iter().enumerate() {
                let stream = root.derive(i as u64);
                t.span("stochastic.linear", i as u64, |_| {
                    black_box(m.forward_stochastic_ctr(&tables, act, &stream))
                });
            }
        }
    }

    // The fault-cone engine on a seeded sample of the targeted classes,
    // against the cached clean trace of the ATPG candidate pool.
    let mut sites = fault_universe(&p.packed);
    let take = w.atpg_classes.min(sites.len());
    for i in 0..take {
        let j = i + (sub_seed(seed, 2_000 + i as u64) % (sites.len() - i) as u64) as usize;
        sites.swap(i, j);
    }
    let mut die = p.packed.clone();
    let mut journal = aqfp_crossbar::faults::PatchJournal::new();
    for (c, site) in sites[..take].iter().enumerate() {
        let dies = die.layers()[site.layer]
            .matrix()
            .expect("fault sites sit on weighted stages")
            .tile_dims()
            .len();
        die.apply_layer_faults_journaled(site.layer, &site.fault.to_draws(dies), &mut journal);
        let (dirty, changed) = t.span("delta.class", c as u64, |_| {
            let dirty = DirtyChannels::from_site(&p.packed, site.layer, &site.fault);
            let changed = die.delta_changed(&p.cache, &dirty);
            (dirty.total(), changed.len())
        });
        t.record_count("delta.dirty_channels", dirty as u64);
        t.record_count("delta.changed_samples", changed as u64);
        die.revert_faults(&mut journal);
    }

    let size = (mean_batch.round() as usize).max(1);
    let batch: Vec<BitPlane> = (0..size)
        .map(|i| p.planes[i % p.planes.len()].clone())
        .collect();
    for _ in 0..SERVE_COMPUTE_CALLS {
        t.span("serve.compute", NO_ID, |_| {
            black_box(p.served.classify_planes(black_box(&batch)))
        });
    }
}

/// The linear stage with the widest fan-in.
fn widest_linear(p: &Prepared) -> Option<&PackedTiledMatrix> {
    p.packed
        .layers()
        .iter()
        .filter_map(|l| match l {
            PackedLayer::Linear(s) => Some(s.matrix()),
            _ => None,
        })
        .max_by_key(|m| m.fan_in())
}

/// Each linear stage with the input planes the eval samples present to it
/// in the digital pipeline.
fn linear_inputs(p: &Prepared) -> Vec<(&PackedTiledMatrix, Vec<BitPlane>)> {
    let mut acts: Vec<BitPlane> = p.planes.clone();
    let mut shape = p.packed.input_shape();
    let mut out = Vec::new();
    for layer in p.packed.layers() {
        if let PackedLayer::Linear(l) = layer {
            out.push((l.matrix(), acts.clone()));
        }
        acts = acts
            .into_iter()
            .map(|a| layer.forward(a, shape).0)
            .collect();
        shape = layer.out_shape(shape);
    }
    out
}

/// u64 words one tiled matrix XNORs per output evaluation: every channel
/// reads the words each row tile spans.
fn matrix_words(m: &PackedTiledMatrix) -> usize {
    let per_channel: usize = (0..m.row_tiles())
        .map(|r| {
            let (start, len) = (m.row_tile_starts()[r], m.tile_rows(r));
            if len == 0 {
                0
            } else {
                (start + len - 1) / 64 - start / 64 + 1
            }
        })
        .sum();
    m.out() * per_channel
}

/// (conv, linear) words XNOR'd per sample, from the stage geometry: a conv
/// stage evaluates its matrix once per output pixel.
fn words_per_sample(p: &Prepared) -> (usize, usize) {
    let (mut conv, mut linear) = (0, 0);
    let mut shape = p.packed.input_shape();
    for layer in p.packed.layers() {
        let next = layer.out_shape(shape);
        match layer {
            PackedLayer::Conv(c) => conv += matrix_words(c.matrix()) * next[1] * next[2],
            PackedLayer::Linear(l) => linear += matrix_words(l.matrix()),
            _ => {}
        }
        shape = next;
    }
    (conv, linear)
}

/// Derives every per-layer metric from the recorded spans and counts.
pub fn metrics(w: &Workload, p: &Prepared, t: &Tracer, run: &RunInfo) -> Vec<Metric> {
    let st = t.self_times();
    let self_ns = |name: &str| st.get(name).map_or(0.0, |&(_, ns)| ns as f64);
    let calls = |name: &str| st.get(name).map_or(0.0, |&(n, _)| n as f64);
    let per_call = |name: &str| {
        let n = calls(name);
        if n == 0.0 {
            0.0
        } else {
            self_ns(name) / n
        }
    };
    let mean_count = |name: &str| {
        let (n, sum) = t.counts(name);
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    };

    let passes = w
        .digital_passes
        .div_ceil(crate::phases::TRACED_DIGITAL_SHARE);
    let digital_samples = (run.rounds as usize * passes * p.planes.len()) as f64;
    let stage_ns = |name: &str| self_ns(name) / digital_samples;
    let (kernel_n, kernel_words) = t.counts("kernel.words");
    let ceiling = if kernel_n == 0 {
        0.0
    } else {
        kernel_words as f64 / self_ns("kernel.xnor") * 1e9
    };
    let (conv_words, linear_words) = words_per_sample(p);
    let pct = |words: usize, ns: f64| {
        if ns == 0.0 || ceiling == 0.0 {
            0.0
        } else {
            100.0 * words as f64 / (ns * 1e-9) / ceiling
        }
    };
    let trials = calls("robustness.eval");
    let k = p.planes.len() as f64;
    let (targeted, detectable, vectors) = run.atpg.map_or((0.0, 0.0, 0.0), |r| {
        (
            r.targeted as f64,
            r.detectable as f64,
            r.probes.len() as f64,
        )
    });

    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup.datagen_s", "s", per_call("setup.datagen") / 1e9),
        m("setup.train_s", "s", per_call("setup.train") / 1e9),
        m("setup.deploy_s", "s", per_call("setup.deploy") / 1e9),
        m("setup.tables_ms", "ms", per_call("setup.tables") / 1e6),
        m(
            "pipeline.conv.ns_per_sample",
            "ns",
            stage_ns("pipeline.conv"),
        ),
        m(
            "pipeline.pool.ns_per_sample",
            "ns",
            stage_ns("pipeline.pool"),
        ),
        m(
            "pipeline.flatten.ns_per_sample",
            "ns",
            stage_ns("pipeline.flatten"),
        ),
        m(
            "pipeline.linear.ns_per_sample",
            "ns",
            stage_ns("pipeline.linear"),
        ),
        m(
            "pipeline.head.ns_per_sample",
            "ns",
            stage_ns("pipeline.head"),
        ),
        m("pipeline.conv.words_per_sample", "count", conv_words as f64),
        m(
            "pipeline.linear.words_per_sample",
            "count",
            linear_words as f64,
        ),
        m(
            "pipeline.conv.pct_of_ceiling",
            "%",
            pct(conv_words, stage_ns("pipeline.conv")),
        ),
        m(
            "pipeline.linear.pct_of_ceiling",
            "%",
            pct(linear_words, stage_ns("pipeline.linear")),
        ),
        m("kernel.xnor_popcount_words_per_s", "words/s", ceiling),
        m(
            "packed.gemm_b1.ns_per_row",
            "ns",
            per_call("packed.gemm_b1"),
        ),
        m(
            "packed.gemm_b64.ns_per_row",
            "ns",
            per_call("packed.gemm_b64") / 64.0,
        ),
        m(
            "stochastic.linear.ns_per_sample",
            "ns",
            self_ns("stochastic.linear") / (STOCHASTIC_PASSES as f64 * k),
        ),
        m(
            "stochastic.total.ns_per_sample",
            "ns",
            self_ns("stochastic.total") / (run.rounds as f64 * w.stochastic_passes as f64 * k),
        ),
        m("delta.cache_ms", "ms", per_call("delta.cache") / 1e6),
        m("delta.ns_per_class", "ns", per_call("delta.class")),
        m(
            "delta.dirty_channels_per_class",
            "count",
            mean_count("delta.dirty_channels"),
        ),
        m(
            "delta.changed_samples_per_class",
            "count",
            mean_count("delta.changed_samples"),
        ),
        m("screening.targeted_classes", "count", targeted),
        m("screening.detectable_classes", "count", detectable),
        m("screening.vectors", "count", vectors),
        m(
            "screening.replay_ns_per_die",
            "ns",
            per_call("screening.replay"),
        ),
        m(
            "faults.patch_ns_per_trial",
            "ns",
            if trials == 0.0 {
                0.0
            } else {
                self_ns("faults.patch") / trials
            },
        ),
        m(
            "robustness.eval_ns_per_trial",
            "ns",
            per_call("robustness.eval"),
        ),
        m(
            "robustness.dirty_channels_per_trial",
            "count",
            mean_count("robustness.dirty_channels"),
        ),
        m("snapshot.write_us", "us", per_call("snapshot.write") / 1e3),
        m("snapshot.read_us", "us", per_call("snapshot.read") / 1e3),
        m("serve.server_p50_us", "us", run.server_p50_us),
        m("serve.server_p99_us", "us", run.server_p99_us),
        m("serve.mean_batch", "count", run.mean_batch),
        m("serve.batches", "count", run.batches),
        m(
            "serve.compute_us_per_batch",
            "us",
            per_call("serve.compute") / 1e3,
        ),
        m("serve.generator_lag_p99_us", "us", run.generator_lag_p99_us),
    ]
}
