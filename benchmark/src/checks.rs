//! Output checks. Each compares the program's output with a separate
//! computation or a property of the method, never with a stored copy of
//! an earlier output. They run after the timed rounds, outside every
//! timed phase and outside the set-up time.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use aqfp_device::{DeviceRng, SeedableRng, VariationModel};
use aqfp_sc::CounterStream;
use superbnn::deploy::PackedModel;
use superbnn::screening::ScreeningReport;
use superbnn_serve::{Pending, Server};

use crate::phases::{serve_config, sweep_config, Outputs};
use crate::trace::Tracer;
use crate::workload::{sub_seed, Prepared, Workload};

/// Detected fault classes re-injected one at a time for the screen check.
const DETECTED_SAMPLE: usize = 16;
/// Test coverage (covered / detectable classes) the probe budget must
/// reach.
const ATPG_TEST_COVERAGE: f64 = 0.9;
/// Standard deviations the counter-mode accuracy may sit from the
/// seed-matched one.
const ACCURACY_SIGMAS: f64 = 4.0;

/// Tally of checks run and failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub run: u64,
    pub failed: u64,
}

impl Checks {
    fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.run += 1;
        if ok {
            eprintln!("check ok    {name}");
        } else {
            self.failed += 1;
            eprintln!("check FAIL  {name}: {}", detail());
        }
    }
}

/// Runs every output check on the set-up and the last round's outputs.
/// `work` is the model the screening phase patched and reverted.
pub fn run_all(
    w: &Workload,
    p: &Prepared,
    seed: u64,
    out: &Outputs,
    work: &PackedModel,
    t: &mut Tracer,
) -> Checks {
    let mut c = Checks::default();
    let n = p.planes.len();

    // Packed digital engine against the scalar digital reference.
    let bad = (0..n)
        .filter(|&i| out.digital[i] != p.deployed.classify_digital(&p.eval.images, i))
        .count();
    c.check(
        "packed digital == scalar classify_digital",
        bad == 0,
        || format!("{bad} of {n} samples differ"),
    );
    if t.enabled() {
        let real = p.packed.classify_planes(&p.planes);
        c.check(
            "traced stage pipeline == classify_planes",
            real == out.digital,
            || "the mirrored pipeline diverged".into(),
        );
    }

    // Seed-matched packed stochastic against the scalar stochastic engine.
    let tables = p.packed.stochastic_tables(&VariationModel::nominal());
    let mut scalar_rng = DeviceRng::seed_from_u64(sub_seed(seed, 8));
    let mut packed_rng = DeviceRng::seed_from_u64(sub_seed(seed, 8));
    let k = w.seed_matched_samples;
    let bad = (0..k)
        .filter(|&i| {
            p.deployed.classify(&p.eval.images, i, &mut scalar_rng)
                != p.packed
                    .classify_stochastic_plane(&tables, &p.planes[i], &mut packed_rng)
        })
        .count();
    c.check(
        "seed-matched packed stochastic == scalar classify, flip for flip",
        bad == 0,
        || format!("{bad} of {k} samples differ"),
    );

    // Counter mode is order-free: reversing the batch changes nothing.
    let root = CounterStream::from_seed(sub_seed(seed, 9));
    let forward: Vec<_> = (0..n)
        .map(|i| {
            p.packed
                .classify_stochastic_plane_ctr(&p.tables, &p.planes[i], &root.derive(i as u64))
        })
        .collect();
    let mut reversed: Vec<_> = (0..n)
        .rev()
        .map(|i| {
            p.packed
                .classify_stochastic_plane_ctr(&p.tables, &p.planes[i], &root.derive(i as u64))
        })
        .collect();
    reversed.reverse();
    c.check(
        "counter-mode labels unchanged by reversed batch order",
        forward == reversed,
        || "labels or scores moved with evaluation order".into(),
    );

    // Counter mode draws from the same Bernoulli laws as the seed-matched
    // chain: the two accuracies estimate one expectation.
    let labels = &p.eval.labels;
    let acc_ctr =
        p.packed
            .accuracy_stochastic_planes_ctr(&p.tables, &p.planes, labels, sub_seed(seed, 9));
    let mut rng = DeviceRng::seed_from_u64(sub_seed(seed, 10));
    let acc_sm = p
        .packed
        .accuracy_stochastic_planes(&tables, &p.planes, labels, &mut rng);
    let mean = (acc_ctr + acc_sm) / 2.0;
    let tol = ACCURACY_SIGMAS * (2.0 * mean * (1.0 - mean) / n as f64).sqrt() + 0.5 / n as f64;
    c.check(
        "counter-mode accuracy within binomial tolerance of seed-matched",
        (acc_ctr - acc_sm).abs() <= tol,
        || format!("counter {acc_ctr:.4} vs seed-matched {acc_sm:.4}, tolerance {tol:.4}"),
    );

    // ATPG: coverage target, and every sampled detected class is caught
    // on a die that carries only that fault.
    match &out.atpg {
        Some(report) => atpg_checks(&mut c, p, seed, report),
        None => c.check("ATPG produced a report", false, || {
            "generation failed".into()
        }),
    }

    // The zero-rate robustness point is the clean accuracy, exactly.
    let cfg = sweep_config(w, seed);
    let clean = p.packed.accuracy_planes(&p.planes, &p.eval.labels);
    let zero = &out.sweep.points[0];
    c.check(
        "zero-rate robustness point == clean accuracy",
        cfg.grid[0].stuck_cell_rate() == 0.0 && zero.trials.iter().all(|t| t.accuracy == clean),
        || format!("clean {clean}, zero-rate mean {}", zero.mean_accuracy),
    );
    if let Some(mirror) = &out.mirror_trials {
        let real: Vec<f64> = out
            .sweep
            .points
            .iter()
            .flat_map(|pt| pt.trials.iter().map(|t| t.accuracy))
            .collect();
        c.check(
            "traced trial loop == run_sweep accuracies",
            &real == mirror,
            || "the mirrored campaign diverged".into(),
        );
    }

    // Screening and the sweep patch and revert faults in place.
    c.check(
        "model after screening and sweep == clone taken before",
        work == &p.packed,
        || "the fault journal left the model changed".into(),
    );

    // The served model is the snapshot round trip of the lowered one.
    c.check(
        "read_snapshot(write_snapshot(m)) == m",
        p.served == p.packed,
        || "the snapshot round trip changed the model".into(),
    );

    let (answered_ok, lags) = serve_answers(w, p);
    c.check(
        "every served answer == classify_plane of its request",
        answered_ok,
        || "a served answer differs or is missing".into(),
    );
    for (i, lag) in lags.iter().enumerate() {
        t.record("serve.dispatch_lag", i as u64, lag.0, lag.1);
    }
    c
}

fn atpg_checks(c: &mut Checks, p: &Prepared, seed: u64, report: &ScreeningReport) {
    let target = ATPG_TEST_COVERAGE;
    c.check(
        "ATPG reaches the target test coverage",
        report.test_coverage() >= target,
        || {
            format!(
                "test coverage {:.4} < {target} ({} vectors)",
                report.test_coverage(),
                report.probes.len()
            )
        },
    );
    // Seeded partial Fisher-Yates over the detected classes.
    let mut sites = report.detected.clone();
    let take = DETECTED_SAMPLE.min(sites.len());
    for i in 0..take {
        let j = i + (sub_seed(seed, 1_000 + i as u64) % (sites.len() - i) as u64) as usize;
        sites.swap(i, j);
    }
    let mut die = p.packed.clone();
    let mut journal = aqfp_crossbar::faults::PatchJournal::new();
    let mut missed = 0;
    for site in &sites[..take] {
        let dies = die.layers()[site.layer]
            .matrix()
            .expect("fault sites sit on weighted stages")
            .tile_dims()
            .len();
        die.apply_layer_faults_journaled(site.layer, &site.fault.to_draws(dies), &mut journal);
        missed += usize::from(report.probes.screen(&die).clean());
        die.revert_faults(&mut journal);
    }
    c.check(
        "ProbeSet::screen flags a die carrying one sampled detected fault",
        take > 0 && missed == 0,
        || format!("{missed} of {take} detected classes screened clean"),
    );
}

/// Sends one rung of requests at the workload's fixed rate through a
/// dispatcher built like `superbnn_serve::open_loop` (one dispatcher, one
/// collector), keeping every answer, and compares each with
/// `classify_plane` of its request. Returns whether all matched, and each
/// request's (scheduled, sent) instants: how late the generator ran.
fn serve_answers(w: &Workload, p: &Prepared) -> (bool, Vec<(Instant, Instant)>) {
    let server = Server::start(p.served.clone(), serve_config()).expect("the config is valid");
    let n = w.rung_requests(w.serve_rate);
    let mut lags = Vec::with_capacity(n);
    let mut answers = Vec::with_capacity(n);
    let start = Instant::now();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, Pending)>();
        let collector = s.spawn(move || {
            rx.into_iter()
                .map(|(i, pending)| (i, pending.wait().ok()))
                .collect::<Vec<_>>()
        });
        for i in 0..n {
            let due = start + Duration::from_secs_f64(i as f64 / w.serve_rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            lags.push((due, sent));
            if let Ok(pending) = server.submit(p.planes[i % p.planes.len()].clone()) {
                tx.send((i, pending)).expect("the collector is running");
            }
        }
        drop(tx);
        answers = collector.join().expect("the collector does not panic");
    });
    server.shutdown();
    let all = answers.len() == n
        && answers.iter().all(|(i, ans)| {
            ans.as_ref() == Some(&p.packed.classify_plane(&p.planes[i % p.planes.len()]))
        });
    (all, lags)
}
