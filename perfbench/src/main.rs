//! adshare end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <office|broadcast|hosted> --seed <n> --seconds <s> --trace <0|1> [--rounds <n>]
//! ```
//!
//! Runs whole rounds of the named workload (build, sync, measured span,
//! settle, per-viewer checks) until `--seconds` of wall time have passed
//! and enough samples exist for every reported percentile. Prints a
//! reproducibility record line, then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer table,
//! from spans the benchmark records around each layer's public calls.
//! See README.md for the workloads, the metrics and what each should move.

mod check;
mod direct;
mod hosted;
mod probe;
mod round;
mod stats;
mod sys;
mod world;

use std::process::ExitCode;
use std::time::Instant;

use round::Round;
use stats::{median, quantile, sorted};

/// Samples each run needs for its glass-to-glass and tick percentiles.
const MIN_SAMPLES: usize = 1000;

/// Every per-layer metric, in output order, with its unit.
const PER_LAYER: [(&str, &str); 40] = [
    ("session.ah_step_ms_per_frame", "ms"),
    ("session.ah_poll_ms_per_frame", "ms"),
    ("session.ah_rtcp_ms_per_frame", "ms"),
    ("session.viewer_ms_per_frame", "ms"),
    ("session.queue_ms_p50", "ms"),
    ("session.full_refreshes", "count"),
    ("encode.tiles_per_frame", "count"),
    ("encode.hit_ratio", "ratio"),
    ("encode.cpu_ms_per_frame", "ms"),
    ("codec.png.ms_per_frame", "ms"),
    ("codec.png.mb_per_s", "MB/s"),
    ("codec.png.bytes_per_frame", "B"),
    ("codec.dct.ms_per_frame", "ms"),
    ("codec.dct.mb_per_s", "MB/s"),
    ("codec.dct.bytes_per_frame", "B"),
    ("remoting.fragments_per_update", "count"),
    ("rtp.packets_per_frame", "count"),
    ("rtp.retx_ratio", "ratio"),
    ("rtp.nacks_per_s", "1/s"),
    ("rtp.plis_per_s", "1/s"),
    ("rate.superseded_per_s", "1/s"),
    ("relay.ingest_us_per_packet", "us"),
    ("relay.step_ms_per_frame", "ms"),
    ("relay.poll_ms_per_frame", "ms"),
    ("relay.rtcp_ms_per_frame", "ms"),
    ("relay.nack_absorb_ratio", "ratio"),
    ("relay.egress_kbps", "kb/s"),
    ("layers.tier_switches", "count"),
    ("layers.synth_msgs_per_s", "1/s"),
    ("host.ms_per_service", "ms"),
    ("host.services_per_frame", "count"),
    ("host.cache_hit_ratio", "ratio"),
    ("host.inline_fallbacks", "count"),
    ("g2g.hop0_ms_p50", "ms"),
    ("g2g.hop1_ms_p50", "ms"),
    ("g2g.hop2_ms_p50", "ms"),
    ("netsim.ms_per_frame", "ms"),
    ("screen.generate_ms_per_frame", "ms"),
    ("trace.tick_ms_p50", "ms"),
    ("trace.tick_ms_p99", "ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Office,
    Broadcast,
    Hosted,
    /// Fault reproductions (README ledger), not benchmark workloads.
    Fault(direct::Scenario),
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "office" => Some(Workload::Office),
            "broadcast" => Some(Workload::Broadcast),
            "hosted" => Some(Workload::Hosted),
            "fault-c" => Some(Workload::Fault(direct::Scenario::PhotoJitter)),
            "fault-d" => Some(Workload::Fault(direct::Scenario::AdaptiveScroll)),
            "fault-f" => Some(Workload::Fault(direct::Scenario::RelayLoss)),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Office => "office",
            Workload::Broadcast => "broadcast",
            Workload::Hosted => "hosted",
            Workload::Fault(direct::Scenario::PhotoJitter) => "fault-c",
            Workload::Fault(direct::Scenario::AdaptiveScroll) => "fault-d",
            Workload::Fault(_) => "fault-f",
        }
    }

    /// Whether the program's wire output must repeat byte for byte. The
    /// office AH walks pending damage of several windows in hash order,
    /// so its digests differ from process to process (README, fault a).
    fn deterministic(self) -> bool {
        matches!(self, Workload::Broadcast | Workload::Hosted)
    }

    fn round(self, seed: u64, trace: bool, round_no: usize) -> Round {
        match self {
            Workload::Office => direct::round(seed, trace, direct::Scenario::Office),
            Workload::Broadcast => direct::round(seed, trace, direct::Scenario::Broadcast),
            Workload::Hosted => hosted::round(seed, trace, round_no),
            Workload::Fault(s) => direct::round(seed, trace, s),
        }
    }
}

/// Inputs of round `k` of a run: different in every round, all derived
/// from `--seed`, so a run averages over several independent inputs.
fn round_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    max_rounds: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut max_rounds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            "--rounds" => {
                max_rounds = Some(value.parse::<usize>().map_err(|_| bad("rounds"))?.max(1))
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        max_rounds,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Pooled, sorted samples of every round.
fn pooled(rounds: &[Round], samples: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
    sorted(
        &rounds
            .iter()
            .flat_map(|r| samples(r).iter().copied())
            .collect::<Vec<_>>(),
    )
}

/// End-to-end metrics over every round of the run. Latency quantiles pool
/// the samples of all rounds; rates are the median of per-round values, so
/// a burst of interference from outside the process that hits one round
/// moves them less.
fn end_to_end(rounds: &[Round]) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let g2g = pooled(rounds, |r| &r.g2g_ms);
    let ticks = pooled(rounds, |r| &r.tick_ms);
    let need = |v: Option<f64>, what: &str, n: usize| {
        v.ok_or_else(|| format!("{what}: {n} samples are too few for this percentile"))
    };
    let per_round =
        |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let sim_s: f64 = rounds.iter().map(|r| r.sim_s).sum();
    let egress: u64 = rounds.iter().map(|r| r.egress_bytes).sum();
    Ok(vec![
        (
            "g2g_ms_p50",
            "ms",
            need(quantile(&g2g, 0.5), "g2g", g2g.len())?,
        ),
        (
            "g2g_ms_p99",
            "ms",
            need(quantile(&g2g, 0.99), "g2g", g2g.len())?,
        ),
        (
            "tick_ms_p50",
            "ms",
            need(quantile(&ticks, 0.5), "ticks", ticks.len())?,
        ),
        (
            "frames_per_s",
            "1/s",
            per_round(|r| r.frames as f64 * 1e3 / r.tick_ms.iter().sum::<f64>()),
        ),
        (
            "cpu_ms_per_frame",
            "ms",
            per_round(|r| r.cpu_s * 1e3 / r.frames as f64),
        ),
        ("egress_kbps", "kb/s", egress as f64 * 8.0 / 1e3 / sim_s),
        ("setup_s", "s", per_round(|r| r.setup_s)),
        ("peak_rss_mb", "MB", sys::peak_rss_mb()),
    ])
}

/// Per-layer metrics: the median over traced rounds of each round's value,
/// and the tick p99 over all traced rounds' ticks (0 with too few).
fn per_layer(rounds: &[Round]) -> Vec<(&'static str, &'static str, f64)> {
    let ticks = pooled(rounds, |r| &r.tick_ms);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            if name == "trace.tick_ms_p99" {
                return (name, unit, quantile(&ticks, 0.99).unwrap_or(0.0));
            }
            let vals: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            (name, unit, median(&vals).unwrap_or(0.0))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <office|broadcast|hosted> --seed <n> --seconds <s> --trace <0|1> [--rounds <n>]");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut seeds: Vec<u64> = Vec::new();
    loop {
        let n = rounds.len();
        // In a traced run the first round stays untraced and the second
        // repeats its inputs traced: their wire digests must be equal.
        let traced = args.trace && n > 0;
        let k = if args.trace { n.saturating_sub(1) } else { n };
        seeds.push(round_seed(args.seed, k));
        rounds.push(args.workload.round(seeds[n], traced, k));
        if args
            .max_rounds
            .is_some_and(|m| rounds.len() >= m.max(1 + usize::from(args.trace)))
        {
            break;
        }
        // Enough samples for every reported percentile: all rounds when
        // untraced, the traced rounds (all but the first) when traced.
        let measured = &rounds[usize::from(args.trace).min(rounds.len())..];
        let count = |f: fn(&Round) -> usize| measured.iter().map(f).sum::<usize>();
        let samples_ok = count(|r| r.tick_ms.len()) >= MIN_SAMPLES
            && (args.trace || count(|r| r.g2g_ms.len()) >= MIN_SAMPLES);
        if started.elapsed().as_secs_f64() >= args.seconds && samples_ok {
            break;
        }
    }

    let mut errors: Vec<String> = rounds
        .iter()
        .flat_map(|r| r.errors.iter().cloned())
        .collect();
    if args.trace && args.workload.deterministic() && rounds[1].digests != rounds[0].digests {
        errors.push("the traced round sent different wire bytes than the untraced one".into());
    }
    let attempted: u64 = rounds.iter().map(|r| r.checked).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut failures: Vec<String> = rounds
        .iter()
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    failures.sort();
    failures.dedup();
    let digests: Vec<String> = rounds[0]
        .digests
        .iter()
        .map(|d| json_str(&format!("{d:016x}")))
        .collect();
    let list = |v: &[String]| {
        v.iter()
            .take(12)
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \"nproc\": {}, \"rounds\": {}, \"round_seeds\": [{}], \"attempted\": {attempted}, \"failed\": {failed}, \"wall_s\": {}, \"digests\": [{}], \"failures\": [{}], \"errors\": [{}]}}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        json_str(&sys::git_rev()),
        sys::nproc(),
        rounds.len(),
        seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(", "),
        json_num(started.elapsed().as_secs_f64()),
        digests.join(", "),
        list(&failures),
        list(&errors),
    );
    for e in &errors {
        eprintln!("perfbench: invariant violated: {e}");
    }

    let metrics = if args.trace {
        per_layer(&rounds[1..])
    } else {
        match end_to_end(&rounds) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        errors.is_empty(),
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
