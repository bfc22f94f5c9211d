//! The repository benchmark: runs one named workload in its own process
//! and prints its metrics.
//!
//! ```text
//! superbnn-benchmark --workload <mlp-digits|vgg-objects> --seed <n>
//!                    --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! The run sets the workload up several times (the median is `setup_s`),
//! then repeats rounds of every timed phase for `--seconds`, then checks
//! the program's outputs. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics derived
//! from the spans (the traced run's own end-to-end metrics are printed on
//! the line before, so the tracing overhead shows). Progress and the
//! check log go to standard error. The process exits nonzero when a
//! check fails.

mod affinity;
mod checks;
mod layers;
mod phases;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use layers::Metric;
use phases::{Figures, Ops};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: superbnn-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--spans <file>]",
        workload::NAMES.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 2023u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(workload::by_name(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| usage());
                if !seconds.is_finite() || seconds <= 0.0 {
                    usage();
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--spans" => spans = Some(value),
            _ => usage(),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds,
        trace,
        spans,
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median, quartiles and relative spread of one rate, as measured and at
/// the reference host speed.
fn print_spread(name: &str, s: &phases::Series) {
    for (kind, v) in [("measured", &s.raw), ("reported", &s.scaled)] {
        if v.len() >= 2 {
            let med = stats::median(v);
            let (q1, q3) = stats::quartiles(v);
            eprintln!(
                "  {name:<26} {kind} median {med:>12.2}  q1 {q1:>12.2}  q3 {q3:>12.2}  \
                 spread {:.3}",
                (q3 - q1) / med
            );
        }
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    s.push('}');
    s
}

fn main() {
    let args = parse_args();
    let w = &args.workload;
    let mut t = Tracer::new(args.trace);
    eprintln!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let p = workload::setup(w, args.seed, &mut t);
        setup_secs.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    eprintln!("setup: {setup_secs:.3?} s");

    // Timed rounds. Round 0 warms caches and is left out of the medians.
    let mut fig = Figures::default();
    let mut ops = Ops::default();
    let mut work = p.packed.clone();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0u64;
    let out = loop {
        let out = phases::round(
            w, &p, args.seed, rounds, &mut t, &mut work, &mut fig, &mut ops,
        );
        rounds += 1;
        if rounds >= 2 && Instant::now() >= deadline {
            break out;
        }
    };
    eprintln!(
        "{rounds} rounds ({} timed); last screening flagged {} of {} dies",
        rounds - 1,
        out.flagged_dies,
        p.dies.len()
    );

    if let Some(r) = &out.atpg {
        eprintln!(
            "ATPG: {} targeted, {} detectable, {} vectors, test coverage {:.4}",
            r.targeted,
            r.detectable,
            r.probes.len(),
            r.test_coverage()
        );
    }
    let checks = checks::run_all(w, &p, args.seed, &out, &work, &mut t);
    ops.attempted += checks.run;
    ops.failed += checks.failed;

    for (name, v) in [
        ("digital_samples_per_s", &fig.digital),
        ("stochastic_samples_per_s", &fig.stochastic),
        ("atpg_classes_per_s", &fig.atpg),
        ("screen_dies_per_s", &fig.screen),
        ("robustness_trials_per_s", &fig.robustness),
    ] {
        print_spread(name, v);
    }
    let ladder = phases::ladder(w, &fig);
    for r in &ladder {
        let m = &r.median;
        eprintln!(
            "  rung {:>8.0} req/s: sent {} answered {} refused {}; medians: p50 {:.1} us, \
             p99 {:.1} us, {:.0} req/s, lateness {:.1} us, drain {:.1} us, batch {:.2}; {}",
            r.rate,
            m.sent,
            m.answered,
            m.refused,
            m.p50_us,
            m.p99_us,
            m.throughput,
            m.lateness_us,
            m.drain_us,
            m.mean_batch,
            if r.meets_slo {
                "meets SLO"
            } else {
                "misses SLO"
            },
        );
    }
    let fixed = &ladder
        .iter()
        .find(|r| r.rate == w.serve_rate)
        .expect("the fixed rate is a ladder rung")
        .median;
    let best = ladder
        .iter()
        .rev()
        .find(|r| r.meets_slo)
        .map_or(0.0, |r| r.median.throughput);
    let med_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let end_to_end = vec![
        Metric {
            name: "digital_samples_per_s",
            unit: "samples/s",
            value: med_or_zero(&fig.digital.scaled),
        },
        Metric {
            name: "stochastic_samples_per_s",
            unit: "samples/s",
            value: med_or_zero(&fig.stochastic.scaled),
        },
        Metric {
            name: "atpg_classes_per_s",
            unit: "classes/s",
            value: med_or_zero(&fig.atpg.scaled),
        },
        Metric {
            name: "screen_dies_per_s",
            unit: "dies/s",
            value: med_or_zero(&fig.screen.scaled),
        },
        Metric {
            name: "robustness_trials_per_s",
            unit: "trials/s",
            value: med_or_zero(&fig.robustness.scaled),
        },
        Metric {
            name: "serve_p50_us",
            unit: "us",
            value: fixed.p50_us,
        },
        Metric {
            name: "serve_max_rps_at_slo",
            unit: "req/s",
            value: best,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: stats::median(&setup_secs),
        },
        Metric {
            name: "peak_rss_mib",
            unit: "MiB",
            value: peak_rss_mib(),
        },
        Metric {
            name: "snapshot_bytes",
            unit: "bytes",
            value: p.snapshot.len() as f64,
        },
    ];

    let metrics = if args.trace {
        layers::probes(w, &p, args.seed, fixed.mean_batch, &mut t);
        let lags: Vec<f64> = t
            .durations("serve.dispatch_lag")
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect();
        let lag_p = stats::tail_percentile(lags.len()).unwrap_or(50.0);
        let run = layers::RunInfo {
            rounds,
            atpg: out.atpg.as_ref(),
            server_p50_us: fixed.server_p50_us,
            server_p99_us: fixed.server_p99_us,
            mean_batch: fixed.mean_batch,
            batches: fixed.batches,
            generator_lag_p99_us: if lags.is_empty() {
                0.0
            } else {
                stats::percentile(&lags, lag_p)
            },
        };
        if let Some(path) = &args.spans {
            let file = std::fs::File::create(path).expect("the spans file can be created");
            let mut buf = std::io::BufWriter::new(file);
            t.write_jsonl(&mut buf)
                .expect("the spans file can be written");
            std::io::Write::flush(&mut buf).expect("the spans file can be flushed");
        }
        println!("traced end-to-end: {}", json_metrics(&end_to_end));
        layers::metrics(w, &p, &t, &run)
    } else {
        end_to_end
    };

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        ops.attempted,
        ops.failed,
        json_metrics(&metrics)
    );
    if checks.failed > 0 || ops.failed > 0 {
        std::process::exit(1);
    }
}
