//! End-to-end benchmark of the SPA platform.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve_mixed|campaign_sweep|durable_ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed, sets the platform up
//! several times (reporting the median set-up time), measures the
//! workload for `--seconds`, checks the outputs, and ends with an
//! operator restart (checkpoint, compaction, drop, recovery). The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed
//! correctness check makes the exit code non-zero. See `README.md`.

mod campaign_sweep;
mod durable_ingest;
mod fixture;
mod layers;
mod measure;
mod serve_mixed;
mod trace;

use fixture::{Counters, Restart};
use layers::WireBytes;
use measure::{peak_rss_mb, result_json, Digest, Metrics};
use spa_server::ServerCounts;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["serve_mixed", "campaign_sweep", "durable_ingest"];

/// End-to-end metrics that go into the result line and so are held to
/// a regression bound: the ones every workload has. The tail latencies,
/// each workload's own rate, `checkpoint_s` and `recover_s` are printed
/// but not bounded (see README.md).
const BOUNDED: [&str; 3] = ["setup_s", "p50_us", "peak_rss_mb"];

/// What one run was asked to do.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's private working directory.
    pub dir: PathBuf,
}

/// The untraced run's figures, from which the end-to-end metrics are
/// derived.
pub struct EndToEnd {
    pub setup_s: f64,
    /// Median latency of the workload's unit operation.
    pub p50_us: f64,
    /// The workload's unit operation (its tail is printed).
    pub unit: Digest,
    /// Tails of the read and the write request classes, where a
    /// workload mixes them (`serve_mixed`).
    pub classes: Option<(Digest, Digest)>,
    /// The workload's own rate: `capacity_rps`, `users_scored_per_s` or
    /// `events_per_s`, with its value.
    pub rate: (&'static str, f64),
    pub checkpoint_s: f64,
    pub recover_s: f64,
}

impl EndToEnd {
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", self.setup_s, "s");
        m.put("p50_us", self.p50_us, "us");
        m.put("p99_us", self.unit.p99_us(), "us");
        if let Some((read, write)) = &self.classes {
            m.put("read_p99_us", read.p99_us(), "us");
            m.put("write_p99_us", write.p99_us(), "us");
        }
        m.put(self.rate.0, self.rate.1, "1/s");
        m.put("checkpoint_s", self.checkpoint_s, "s");
        m.put("recover_s", self.recover_s, "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub tracer: &'a Tracer,
    pub wire: WireBytes,
    /// Platform counters over the traced phase.
    pub counters: Counters,
    /// Events ingested during the traced phase.
    pub events_ingested: u64,
    pub restart: &'a Restart,
    pub users: u32,
    /// Process CPU time and unit operations over the traced phase.
    pub cpu_us: u64,
    pub ops: u64,
    pub server: ServerCounts,
    /// Traced unit-operation p50 over untraced, minus one, in percent.
    pub overhead_pct: f64,
}

impl LayerInputs<'_> {
    /// Digest of the spans named `span`, or of the `setup.` or
    /// `verify.` spans of the same call when the workload's own phase
    /// makes none (a workload without reads still scores in its restart
    /// verification, and every workload loads and trains at set-up).
    fn digest(&self, span: &str) -> Option<Digest> {
        let call = span.trim_start_matches("shard.");
        self.tracer
            .digest(span)
            .or_else(|| self.tracer.digest(&format!("verify.{call}")))
            .or_else(|| self.tracer.digest(&format!("setup.{call}")))
    }

    fn p50(&self, span: &str) -> f64 {
        self.digest(span).map_or(0.0, |d| d.p50_us())
    }

    fn p99(&self, span: &str) -> f64 {
        self.digest(span).map_or(0.0, |d| d.p99_us())
    }

    pub fn metrics(&self) -> Metrics {
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let mut m = Metrics::default();
        m.put("wire.encode_req_us", self.p50("wire.encode_req"), "us");
        m.put("wire.decode_req_us", self.p50("wire.decode_req"), "us");
        m.put("wire.encode_resp_us", self.p50("wire.encode_resp"), "us");
        m.put("wire.decode_resp_us", self.p50("wire.decode_resp"), "us");
        m.put("wire.req_bytes", per(self.wire.request_bytes as f64, self.wire.requests), "bytes");
        m.put("wire.resp_bytes", per(self.wire.response_bytes as f64, self.wire.requests), "bytes");
        m.put("api.dispatch_p50_us", self.p50("api.dispatch"), "us");
        m.put("api.dispatch_p99_us", self.p99("api.dispatch"), "us");
        m.put("shard.score_users_p50_us", self.p50("shard.score_users"), "us");
        m.put("shard.rank_top_k_p50_us", self.p50("shard.rank_top_k"), "us");
        m.put("shard.rank_top_k_p99_us", self.p99("shard.rank_top_k"), "us");
        m.put("shard.ingest_batch_p50_us", self.p50("shard.ingest_batch"), "us");
        m.put("shard.observe_outcome_p50_us", self.p50("shard.observe_outcome"), "us");
        m.put("shard.flush_us", self.restart.flush_us, "us");
        m.put("shard.compact_s", self.restart.compact_s, "s");
        let (hits, misses) = (self.counters.cache_hits, self.counters.cache_misses);
        m.put("cache.hits", hits as f64, "count");
        m.put("cache.misses", misses as f64, "count");
        m.put("cache.hit_ratio", per(hits as f64, hits + misses), "ratio");
        m.put(
            "epoch.model_publishes_per_event",
            per(self.counters.model_publishes as f64, self.events_ingested),
            "ratio",
        );
        m.put("epoch.selection_publishes", self.counters.selection_publishes as f64, "count");
        let wal = &self.restart.wal;
        m.put("wal.bytes_per_event", per(wal.bytes as f64, wal.events_appended), "bytes");
        m.put("wal.segments", wal.segments as f64, "count");
        m.put(
            "snapshot.bytes_per_user",
            per(self.restart.snapshot_bytes as f64, u64::from(self.users)),
            "bytes",
        );
        m.put("recover.events_replayed", self.restart.report.total_events() as f64, "count");
        m.put(
            "recover.shards_from_snapshot",
            self.restart.report.shards_from_snapshot() as f64,
            "count",
        );
        m.put("proc.cpu_us_per_op", per(self.cpu_us as f64, self.ops), "us");
        m.put("server.frames_served", self.server.frames_served as f64, "count");
        m.put("server.sheds", self.server.sheds as f64, "count");
        m.put("server.deadline_rejects", self.server.deadline_rejects as f64, "count");
        m.put("server.dedup_hits", self.server.dedup_hits as f64, "count");
        m.put("trace.overhead_pct", self.overhead_pct, "%");
        m
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub e2e: EndToEnd,
    /// Per-layer metrics, present on traced runs.
    pub layers: Option<Metrics>,
    pub attempted: u64,
    /// Failed operations and checks, one line each.
    pub failures: Vec<String>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    pub tracer: Tracer,
}

/// Removes the run's working directory when the run ends, panics
/// included.
struct WorkDir<'a>(&'a std::path::Path);

impl Drop for WorkDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        let _ = std::fs::remove_dir(".bench_work"); // only when empty
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        dir: fixture::work_dir(&args.workload),
    };
    let outcome = {
        let _cleanup = WorkDir(&cfg.dir);
        match args.workload.as_str() {
            "serve_mixed" => serve_mixed::run(&cfg),
            "campaign_sweep" => campaign_sweep::run(&cfg),
            _ => durable_ingest::run(&cfg),
        }
    };

    let failures = outcome.failures;
    let failed = failures.len() as u64;
    let attempted = outcome.attempted;
    let e2e = outcome.e2e.metrics();

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    for line in &outcome.report {
        println!("  {line}");
    }
    println!("end-to-end (* = in the result line):");
    for metric in &e2e.0 {
        let mark = if BOUNDED.contains(&metric.name) { "*" } else { " " };
        println!("  {mark} {:<20} {:>14.3} {}", metric.name, metric.value, metric.unit);
    }
    let failed_share = failed as f64 / attempted as f64;
    println!("    {:<20} {:>14.6} ratio ({failed} of {attempted})", "failed_share", failed_share);
    if let Some(layers) = &outcome.layers {
        println!("per-layer:");
        for metric in &layers.0 {
            println!("  {:<32} {:>14.3} {}", metric.name, metric.value, metric.unit);
        }
        println!("layer totals (count, total ms, self ms):");
        for (name, (count, total, own)) in outcome.tracer.layer_totals() {
            println!(
                "  {name:<24} {count:>9} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = PathBuf::from(".bench_work").join(format!("spans-{}.jsonl", args.workload));
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    for failure in failures.iter().take(20) {
        println!("CHECK FAILED: {failure}");
    }
    let correct = failures.is_empty();
    let bounded: Vec<_> = e2e.0.iter().filter(|m| BOUNDED.contains(&m.name)).cloned().collect();
    let metrics = match &outcome.layers {
        Some(layers) => &layers.0,
        None => &bounded,
    };
    println!("{}", result_json(correct, attempted, failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
