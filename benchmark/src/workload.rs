//! The two named workloads and their set-up.
//!
//! Every constant that shapes a workload's inputs lives in [`Workload`],
//! so two commits run exactly the same work; the `--seed` argument only
//! chooses which synthetic data, fault draws and noise streams fill it.

use aqfp_crossbar::faults::{FaultModel, InjectedFaults};
use aqfp_device::{DeviceRng, SeedableRng, VariationModel};
use aqfp_sc::BitPlane;
use bnn_datasets::{digits, objects, Dataset, SynthConfig};
use superbnn::config::HardwareConfig;
use superbnn::deploy::{
    deploy, ActivationCache, BitMap, DeployedModel, PackedModel, RngMode, StochasticTables,
};
use superbnn::robustness::interleaved_eval_set;
use superbnn::screening::synthesize_probes;
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};

use crate::trace::{Tracer, NO_ID};

/// Which synthetic dataset a workload draws.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// SynthDigits, 1×16×16.
    Digits,
    /// SynthObjects, 3×16×16.
    Objects,
}

/// Everything that fixes one workload's work.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub hw: HardwareConfig,
    pub spec: NetSpec,
    pub data: Data,
    pub samples_per_class: usize,
    pub epochs: usize,
    /// Class-interleaved evaluation samples: the digital, stochastic,
    /// robustness and serving inputs.
    pub eval_samples: usize,
    /// Passes over the eval planes per digital repetition.
    pub digital_passes: usize,
    /// Passes over the eval planes per stochastic repetition.
    pub stochastic_passes: usize,
    /// Samples checked flip for flip against the scalar stochastic engine.
    pub seed_matched_samples: usize,
    /// Seeded subsample of the targeted fault universe ATPG works on.
    pub atpg_classes: usize,
    /// Eval planes in the ATPG candidate pool.
    pub atpg_eval_candidates: usize,
    /// Synthesized planes in the ATPG candidate pool.
    pub atpg_synth_candidates: usize,
    /// The fab-line probe budget. It is below the cover size of every
    /// seed tried, so each seed replays the same number of probes.
    pub max_vectors: usize,
    /// Faulted dies each screening repetition replays the probes on.
    pub screen_dies: usize,
    /// Trials per rate of the digital robustness campaign.
    pub robustness_trials: usize,
    /// Offered rates of the serving ladder, req/s, ascending.
    pub serve_ladder: &'static [f64],
    /// The ladder rung whose latency is reported as `serve_p50_us`.
    pub serve_rate: f64,
    /// p99 limit (µs) a rung must meet to count for `serve_max_rps_at_slo`.
    pub serve_p99_limit_us: f64,
}

/// Stuck-cell rate the screened dies are drawn at (dead columns at a tenth
/// of it).
const SCREEN_RATE: f64 = 0.002;

/// Stuck-cell rates of the robustness campaign. The low rates dirty fewer
/// than a quarter of the output channels (the fault-cone delta path), the
/// high ones more (the full-forward fallback).
pub const ROBUSTNESS_RATES: [f64; 5] = [0.0, 0.0002, 0.001, 0.01, 0.05];

/// Shortest serving rung, in seconds of scheduled sends.
const RUNG_SECONDS: f64 = 0.1;
/// Fewest requests a serving rung sends: enough to leave ten beyond p99.
const RUNG_MIN_REQUESTS: usize = 1_000;

impl Workload {
    /// Requests sent at `rate` req/s: at least [`RUNG_MIN_REQUESTS`] and at
    /// least [`RUNG_SECONDS`] worth.
    pub fn rung_requests(&self, rate: f64) -> usize {
        RUNG_MIN_REQUESTS.max((rate * RUNG_SECONDS) as usize)
    }
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        "mlp-digits" => Some(Workload {
            name: "mlp-digits",
            hw: HardwareConfig {
                crossbar_rows: 8,
                crossbar_cols: 8,
                grayzone_ua: 8.0,
                bitstream_len: 32,
                ..Default::default()
            },
            spec: NetSpec::mlp(&[1, 16, 16], &[128, 64], 10),
            data: Data::Digits,
            samples_per_class: 80,
            epochs: 2,
            eval_samples: 200,
            digital_passes: 280,
            stochastic_passes: 10,
            seed_matched_samples: 16,
            atpg_classes: 8192,
            atpg_eval_candidates: 48,
            atpg_synth_candidates: 80,
            max_vectors: 96,
            screen_dies: 256,
            robustness_trials: 64,
            serve_ladder: &[5_000.0, 10_000.0, 20_000.0, 40_000.0, 400_000.0],
            // Not 5k req/s: its 200 µs gap equals the batching deadline, and
            // p50 flips between batches of one and two from run to run.
            serve_rate: 10_000.0,
            serve_p99_limit_us: 20_000.0,
        }),
        "vgg-objects" => Some(Workload {
            name: "vgg-objects",
            hw: HardwareConfig {
                crossbar_rows: 32,
                crossbar_cols: 16,
                grayzone_ua: 0.4,
                bitstream_len: 16,
                ..Default::default()
            },
            spec: NetSpec::vgg_small([3, 16, 16], 8, 10),
            data: Data::Objects,
            samples_per_class: 24,
            epochs: 1,
            eval_samples: 60,
            digital_passes: 24,
            stochastic_passes: 8,
            seed_matched_samples: 2,
            atpg_classes: 512,
            atpg_eval_candidates: 16,
            atpg_synth_candidates: 16,
            max_vectors: 12,
            screen_dies: 96,
            robustness_trials: 10,
            serve_ladder: &[1_000.0, 3_000.0, 12_000.0],
            serve_rate: 3_000.0,
            serve_p99_limit_us: 50_000.0,
        }),
        _ => None,
    }
}

/// Names of every workload, for the usage message.
pub const NAMES: [&str; 2] = ["mlp-digits", "vgg-objects"];

/// Seed of the training data, weight init and training schedule. The
/// trained model is part of a workload's definition, like its geometry;
/// `--seed` chooses the inputs the timed phases see.
const MODEL_SEED: u64 = 2023;

/// Derives a sub-seed for one use of the workload seed.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    // splitmix64 finalizer over (seed, purpose): distinct purposes of one
    // seed draw unrelated streams.
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The set-up every timed phase starts from.
pub struct Prepared {
    /// The scalar reference deployment.
    pub deployed: DeployedModel,
    /// The lowered model, one worker.
    pub packed: PackedModel,
    /// The model the server runs: `packed` after a snapshot round trip.
    pub served: PackedModel,
    pub snapshot: Vec<u8>,
    /// Counter-mode stochastic tables at the nominal operating point.
    pub tables: StochasticTables,
    /// Class-interleaved evaluation set and its packed planes.
    pub eval: Dataset,
    pub planes: Vec<BitPlane>,
    /// ATPG candidate pool and its clean activation trace.
    pub candidates: Vec<BitPlane>,
    pub cache: ActivationCache,
    /// Fault draws of the screened dies.
    pub dies: Vec<Vec<Vec<InjectedFaults>>>,
}

/// Generates the inputs, trains, deploys and lowers, builds the stochastic
/// tables and the activation cache, and round-trips the snapshot the
/// server loads. Each step runs inside a `setup.*` span.
pub fn setup(w: &Workload, seed: u64, t: &mut Tracer) -> Prepared {
    // The training split of the model's dataset, and the test split of a
    // dataset drawn from the run's seed.
    let (train, test) = t.span("setup.datagen", NO_ID, |_| {
        let generate = |data_seed| {
            let cfg = SynthConfig {
                samples_per_class: w.samples_per_class,
                seed: data_seed,
                ..Default::default()
            };
            match w.data {
                Data::Digits => digits::generate_digits(&cfg),
                Data::Objects => objects::generate_objects(&cfg),
            }
            .split(0.25)
        };
        (generate(MODEL_SEED).0, generate(sub_seed(seed, 1)).1)
    });
    let model = t.span("setup.train", NO_ID, |_| {
        let mut model = w.spec.build_software(&w.hw, MODEL_SEED);
        Trainer::new(TrainConfig {
            epochs: w.epochs,
            lr: 0.02,
            seed: MODEL_SEED,
            ..Default::default()
        })
        .train(&mut model, &train);
        model
    });
    let (deployed, packed) = t.span("setup.deploy", NO_ID, |_| {
        let deployed = deploy(&w.spec, &model, &w.hw).expect("the spec matches the trained model");
        let packed = deployed
            .to_packed()
            .with_workers(1)
            .expect("one worker is valid");
        (deployed, packed)
    });
    let tables = t.span("setup.tables", NO_ID, |_| {
        packed.stochastic_tables_mode(&VariationModel::nominal(), RngMode::Counter)
    });
    let eval = interleaved_eval_set(&test, Some(w.eval_samples));
    assert_eq!(eval.len(), w.eval_samples, "test split too small");
    let planes: Vec<BitPlane> = (0..eval.len())
        .map(|i| BitMap::from_tensor_sample(&eval.images, i).to_plane())
        .collect();
    let mut candidates: Vec<BitPlane> = planes[..w.atpg_eval_candidates].to_vec();
    candidates.extend(synthesize_probes(
        planes[0].len(),
        w.atpg_synth_candidates,
        sub_seed(seed, 4),
    ));
    let cache = t.span("delta.cache", NO_ID, |_| {
        ActivationCache::new(&packed, &candidates)
    });
    let mut snapshot = Vec::new();
    t.span("snapshot.write", NO_ID, |_| {
        packed
            .write_snapshot(&mut snapshot)
            .expect("writing to memory cannot fail")
    });
    let served = t.span("snapshot.read", NO_ID, |_| {
        PackedModel::read_snapshot(&mut snapshot.as_slice())
            .expect("a snapshot just written reads back")
            .with_workers(1)
            .expect("one worker is valid")
    });
    let die_model = FaultModel::new(SCREEN_RATE, SCREEN_RATE / 10.0).expect("a probability");
    let mut rng = DeviceRng::seed_from_u64(sub_seed(seed, 5));
    let dies = (0..w.screen_dies)
        .map(|_| packed.draw_faults(&die_model, &mut rng))
        .collect();
    Prepared {
        deployed,
        packed,
        served,
        snapshot,
        tables,
        eval,
        planes,
        candidates,
        cache,
        dies,
    }
}
