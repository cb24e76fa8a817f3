//! `wirebench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload <rounds_durable|tagger_sessions> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives an in-process `itag_server::server::serve` over loopback from
//! one client thread, measures one closed-loop workload for
//! `--seconds`, checks the answers against an in-process twin, and prints
//! human-readable figures followed by one JSON line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same workload with a span
//! recorder and twin replays and reports the per-layer metrics. See
//! `wirebench/README.md` for what each figure means.

mod host;
mod metrics;
mod script;
mod stats;
mod tagger;
mod trace;
mod wire;
mod writer;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stats::Samples;
use trace::Recorder;
use wire::Tally;

pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub tmp: PathBuf,
    pub epoch: Instant,
}

/// What a workload hands back.
pub struct Outcome {
    pub tally: Tally,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<String, f64>,
    pub lines: Vec<String>,
    pub spans: Recorder,
}

impl Outcome {
    pub fn new(epoch: Instant) -> Self {
        Outcome {
            tally: Tally::default(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            lines: Vec::new(),
            spans: Recorder::new(epoch),
        }
    }

    pub fn show(&mut self, name: &str, value: f64, unit: &str, note: String) {
        self.lines
            .push(format!("{name:<18} {value:>14.4} {unit:<4} {note}"));
    }

    /// Records `setup_s`, the median of the run's set-up times, and shows
    /// every one of them.
    pub fn setup(&mut self, times: &[f64]) {
        let med = stats::median(times);
        let all: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
        let note = format!("(median of {}: {})", times.len(), all.join(" "));
        self.show("setup_s", med, "s", note);
        self.e2e.insert("setup_s", med);
    }

    /// Shows the median of `s` (µs samples) scaled by `scale`.
    pub fn show_p50(&mut self, s: &mut Samples, name: &str, scale: f64, unit: &str) {
        match s.percentile(0.5) {
            Ok(v) => self.show(name, v * scale, unit, format!("(p50 of {})", s.len())),
            Err(e) => self.show(name, 0.0, unit, format!("(refused: {e})")),
        }
    }

    /// Shows the p99 of `s`, or the highest percentile it supports.
    pub fn show_tail(&mut self, s: &mut Samples, name: &str, scale: f64, unit: &str) {
        match s.tail(0.99) {
            Some(t) => self.show(
                name,
                t.value * scale,
                unit,
                format!("(p{:.1} of {})", t.q * 100.0, t.n),
            ),
            None => self.show(name, 0.0, unit, format!("(too few samples: {})", s.len())),
        }
    }

    /// Records the headline operation's end-to-end figures: latencies in
    /// µs, in time order, and completions per second. The latency figure
    /// is a median over stretches of the run ([`stats::stretch_quantile`]).
    /// No tail is gated: on the fsync-bound writers even a p90 moves with
    /// the host's I/O from one run to the next, so the tails are shown
    /// above instead.
    pub fn headline(&mut self, lat_us: &[f64], per_s: f64) {
        let p50 = stats::stretch_quantile(lat_us, stats::LATENCY_CHUNKS, 0.5).unwrap_or(0.0);
        self.e2e.insert("op_p50_ms", p50 / 1e3);
        self.e2e.insert("ops_per_s", per_s);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn run(args: &Args, root: &Path, tmp: &Path) -> Result<(), String> {
    std::fs::create_dir_all(tmp).map_err(|e| format!("mkdir {}: {e}", tmp.display()))?;
    let host = host::Host::probe(tmp).map_err(|e| format!("host probe: {e}"))?;
    println!(
        "wirebench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host: {}", host.describe());
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        tmp: tmp.to_path_buf(),
        epoch: Instant::now(),
    };
    let mut out = match args.workload.as_str() {
        "rounds_durable" => writer::run(&ctx)?,
        "tagger_sessions" => tagger::run(&ctx)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let failed_frac = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    out.show(
        "failed_frac",
        failed_frac,
        "",
        format!("{} of {} operations", out.tally.failed, out.tally.attempted),
    );
    out.show(
        "peak_rss_mib",
        out.e2e.get("peak_rss_mib").copied().unwrap_or(0.0),
        "MiB",
        String::new(),
    );
    for line in &out.lines {
        println!("{line}");
    }
    for e in &out.tally.errors {
        println!("FAILED: {e}");
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        out.layer
            .insert("store.fsync_commit_us".into(), host.fsync_commit_us);
        let self_ns = trace::self_times(&out.spans.spans);
        for layer in metrics::SPAN_LAYERS {
            let v: Vec<f64> = out
                .spans
                .spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.name == layer)
                .map(|(_, &ns)| ns as f64 / 1e3)
                .collect();
            out.layer
                .insert(format!("trace.self_us.{layer}"), stats::median(&v));
        }
        let path = root.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        out.spans
            .write_tsv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "{} spans written to {}",
            out.spans.spans.len(),
            path.display()
        );
        for (name, unit) in metrics::per_layer() {
            let v = out.layer.get(&name).copied().unwrap_or(0.0);
            println!("{name:<40} {v:>14.4} {unit}");
            metrics.push((name, v, unit));
        }
    } else {
        for (name, unit) in metrics::END_TO_END {
            let v = *out
                .e2e
                .get(name)
                .ok_or(format!("workload did not measure {name}"))?;
            metrics.push((name.to_string(), v, unit));
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted.max(1),
        out.tally.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".wirebench");
    let tmp = root.join(format!("tmp-{}", std::process::id()));
    let result = run(&args, &root, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    if let Err(e) = result {
        eprintln!("wirebench: {e}");
        std::process::exit(1);
    }
}
