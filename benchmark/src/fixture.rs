//! Platform bring-up and the operator restart every workload ends
//! with: checkpoints with post-checkpoint tails, compaction, a drop,
//! and repeated recovery, checked bit for bit against the live
//! platform.

use crate::measure::median;
use crate::trace::Tracer;
use spa_core::platform::SpaConfig;
use spa_core::{RecoveryReport, ShardedSpa};
use spa_ml::Dataset;
use spa_store::fault::SplitMix64;
use spa_store::log::{LogConfig, LogStats};
use spa_synth::catalog::CourseCatalog;
use spa_types::{
    CampaignId, CourseId, EmotionalAttribute, EventKind, LifeLogEvent, QuestionId, Timestamp,
    UserId, Valence,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The campaign every workload registers at bring-up.
pub const CAMPAIGN: CampaignId = CampaignId::new(1);
/// Questions in the platform's standard Gradual-EIT bank.
pub const QUESTION_BANK: u64 = 40;
/// Courses in the generated catalogue.
pub const COURSES: u64 = 25;
/// Attributes in an advice row (the selection function's input width).
const ADVICE_DIM: usize = 75;
/// Advice-row attribute the training labels split on.
const LABEL_ATTRIBUTE: u32 = 65;
/// Events per `ingest_batch` call while loading a population.
const LOAD_BATCH: usize = 4096;
/// Users per `score_users` call in the restart phase's verification
/// sweep (the serving request size).
const SWEEP_CHUNK: usize = 16;
/// Audience and `k` of the verification sweep's `rank_top_k` calls.
const RANK_CHUNK: usize = 64;
const RANK_K: usize = 8;

pub fn courses() -> CourseCatalog {
    CourseCatalog::generate(COURSES as usize, 5, 3).expect("course catalogue")
}

pub fn campaigns() -> Vec<(CampaignId, Vec<EmotionalAttribute>)> {
    vec![(CAMPAIGN, vec![EmotionalAttribute::Hopeful])]
}

/// Shape of one workload's platform.
#[derive(Debug, Clone, Copy)]
pub struct PlatformSpec {
    pub shards: usize,
    pub users: u32,
    /// Gradual-EIT answers loaded per user at bring-up.
    pub answers_per_user: u32,
    /// Users whose advice rows train the selection function.
    pub train_users: u32,
    /// Online outcomes folded in after training.
    pub outcomes: u32,
}

/// A uniformly random valence in `[-1, 1]`.
pub fn valence(rng: &mut SplitMix64) -> Valence {
    Valence::new(rng.gen_range(2001) as f64 / 1000.0 - 1.0)
}

/// A valid Gradual-EIT answer event.
pub fn answer(rng: &mut SplitMix64, user: UserId, at: u64) -> LifeLogEvent {
    let question = QuestionId::new(rng.gen_range(QUESTION_BANK) as u32);
    LifeLogEvent::new(
        user,
        Timestamp::from_millis(at),
        EventKind::EitAnswer { question, answer: valence(rng) },
    )
}

/// A campaign-attributed transaction event.
pub fn transaction(rng: &mut SplitMix64, user: UserId, at: u64) -> LifeLogEvent {
    LifeLogEvent::new(
        user,
        Timestamp::from_millis(at),
        EventKind::Transaction {
            course: CourseId::new(rng.gen_range(COURSES) as u32),
            campaign: Some(CAMPAIGN),
        },
    )
}

/// The bring-up event stream: every user answers
/// `answers_per_user` questions, round-robin over users.
pub fn population_events(spec: &PlatformSpec, seed: u64) -> Vec<LifeLogEvent> {
    let mut rng = SplitMix64::new(seed ^ 0x9090_1A7E);
    let total = spec.users as u64 * spec.answers_per_user as u64;
    (0..total).map(|i| answer(&mut rng, UserId::new((i % spec.users as u64) as u32), i)).collect()
}

/// Removes a platform directory left by an earlier bring-up.
fn clear_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove platform directory");
    }
}

/// Runs `set_up` `times` times and returns the last result with the
/// median set-up time. Before each set-up, and outside its clock, the
/// previous result is dropped and its platform directory `dir` removed.
pub fn repeat_set_up<T>(times: usize, dir: &Path, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let mut seconds = Vec::new();
    for _ in 0..times {
        drop(last.take());
        clear_dir(dir);
        let start = Instant::now();
        last = Some(set_up());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (last.expect("set up at least once"), median(&seconds))
}

/// Brings up a WAL-backed platform in `dir`, which must not hold one
/// already: open the logs, load the population through `ingest_batch`,
/// train the selection function, fold in online outcomes, and warm every
/// advice row.
pub fn bring_up(
    spec: &PlatformSpec,
    dir: &Path,
    population: &[LifeLogEvent],
    tracer: &mut Tracer,
) -> ShardedSpa {
    let spa = ShardedSpa::with_log(
        &courses(),
        SpaConfig::default(),
        spec.shards,
        dir,
        LogConfig::default(),
    )
    .expect("open WAL-backed platform");
    for (campaign, appeal) in campaigns() {
        spa.register_campaign(campaign, &appeal);
    }
    for (i, chunk) in population.chunks(LOAD_BATCH).enumerate() {
        let applied = tracer
            .time("setup.ingest_batch", None, i as u64, || spa.ingest_batch(chunk))
            .expect("population ingest");
        assert_eq!(applied, chunk.len(), "population events are all valid");
    }
    // labels split the training rows at their median, so both classes
    // are present whatever the seed
    let rows: Vec<_> = (0..spec.train_users.min(spec.users))
        .map(|raw| spa.advice_row(UserId::new(raw)).expect("advice row of a loaded user"))
        .collect();
    let split = median(&rows.iter().map(|r| r.get(LABEL_ATTRIBUTE)).collect::<Vec<_>>());
    let mut data = Dataset::new(ADVICE_DIM);
    for row in &rows {
        let label = if row.get(LABEL_ATTRIBUTE) > split { 1.0 } else { -1.0 };
        data.push(row, label).expect("training row");
    }
    spa.train_selection(&data).expect("train selection function");
    for (i, row) in rows.iter().take(spec.outcomes as usize).enumerate() {
        let responded = row.get(LABEL_ATTRIBUTE) > split;
        tracer
            .time("setup.observe_outcome", None, i as u64, || {
                spa.observe_outcome(UserId::new(i as u32), responded)
            })
            .expect("observe outcome");
    }
    let everyone: Vec<UserId> = (0..spec.users).map(UserId::new).collect();
    for chunk in everyone.chunks(10_000) {
        spa.score_users(chunk).expect("warm advice rows");
    }
    spa
}

/// Monotone platform counters read before and after a traced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub model_publishes: u64,
    pub selection_publishes: u64,
}

impl Counters {
    pub fn read(spa: &ShardedSpa) -> Self {
        let (cache_hits, cache_misses) = (0..spa.shard_count())
            .map(|i| spa.shard(spa_types::ShardId::new(i as u32)).advice_cache_stats())
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        let publications = spa.publication_stats();
        Self {
            cache_hits,
            cache_misses,
            model_publishes: publications.model_publishes,
            selection_publishes: publications.selection_publishes,
        }
    }

    /// Counts since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            model_publishes: self.model_publishes - earlier.model_publishes,
            selection_publishes: self.selection_publishes - earlier.selection_publishes,
        }
    }
}

/// What the restart phase measured and checked.
pub struct Restart {
    /// Seconds of each checkpoint and each recovery, in order.
    checkpoints: Vec<f64>,
    recoveries: Vec<f64>,
    pub compact_s: f64,
    pub flush_us: f64,
    /// Bytes of the last checkpoint's snapshots.
    pub snapshot_bytes: u64,
    /// WAL totals just before compaction.
    pub wal: LogStats,
    /// The first recovery's report.
    pub report: RecoveryReport,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
    /// Checks made.
    pub checks: u64,
}

impl Restart {
    /// The fastest checkpoint: the platform's own cost with the least
    /// disk and scheduler wait. Over repeated runs it spread half as much
    /// as the median did on the reference host, where a checkpoint of
    /// the small `serve_mixed` platform is mostly fsync.
    pub fn checkpoint_s(&self) -> f64 {
        self.checkpoints.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The fastest recovery, for the same reason.
    pub fn recover_s(&self) -> f64 {
        self.recoveries.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Report lines: repeat counts and medians, and the first
    /// recovery's report.
    pub fn describe(&self) -> Vec<String> {
        vec![
            format!(
                "restart: {} checkpoints (fastest {:.6}s, median {:.6}s), {} recoveries (fastest {:.6}s, median {:.6}s)",
                self.checkpoints.len(),
                self.checkpoint_s(),
                median(&self.checkpoints),
                self.recoveries.len(),
                self.recover_s(),
                median(&self.recoveries)
            ),
            format!("recovery: {}", self.report.to_string().replace('\n', " |")),
        ]
    }
}

type Sweep = (Vec<(UserId, f64)>, Vec<Vec<(UserId, f64)>>);

/// Scores every user in serving-sized calls and ranks every
/// `RANK_CHUNK`-user audience.
fn sweep(spa: &ShardedSpa, users: u32, tracer: &mut Tracer) -> Sweep {
    let everyone: Vec<UserId> = (0..users).map(UserId::new).collect();
    let mut scores = Vec::with_capacity(everyone.len());
    for (i, chunk) in everyone.chunks(SWEEP_CHUNK).enumerate() {
        let scored = tracer
            .time("verify.score_users", None, i as u64, || spa.score_users(chunk))
            .expect("score");
        scores.extend(scored);
    }
    let ranks = everyone
        .chunks(RANK_CHUNK)
        .enumerate()
        .map(|(i, chunk)| {
            tracer
                .time("verify.rank_top_k", None, i as u64, || spa.rank_top_k(chunk, RANK_K))
                .expect("rank_top_k")
        })
        .collect();
    (scores, ranks)
}

fn bit_identical(a: &[(UserId, f64)], b: &[(UserId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ua, sa), (ub, sb))| ua == ub && sa.to_bits() == sb.to_bits())
}

/// The operator restart: `tails.len()` checkpoints, each followed by a
/// post-checkpoint tail, then compaction, a flush, a verification
/// sweep, a drop, and as many recoveries from disk (the reported
/// checkpoint and recovery times are the fastest). The first recovered
/// platform must score and rank every user bit-identically to the live
/// one, and its report must account for exactly the last tail.
pub fn restart(
    spa: ShardedSpa,
    dir: &Path,
    users: u32,
    tails: &[Vec<LifeLogEvent>],
    tracer: &mut Tracer,
) -> Restart {
    assert!(!tails.is_empty(), "at least one checkpoint");
    let mut failures = Vec::new();
    let start = Instant::now();
    tracer.time("shard.flush", None, 0, || spa.flush()).expect("flush");
    let flush_us = start.elapsed().as_secs_f64() * 1e6;
    let wal = spa.log().expect("durable platform").stats().expect("WAL stats");

    let mut checkpoint_s = Vec::new();
    let mut snapshot_bytes = 0;
    for (i, tail) in tails.iter().enumerate() {
        let start = Instant::now();
        let report = tracer
            .time("shard.checkpoint", None, i as u64, || spa.checkpoint())
            .expect("checkpoint");
        checkpoint_s.push(start.elapsed().as_secs_f64());
        snapshot_bytes = report.snapshot_bytes;
        spa.ingest_batch(tail).expect("post-checkpoint tail");
    }
    let start = Instant::now();
    tracer.time("shard.compact", None, 0, || spa.compact()).expect("compact");
    let compact_s = start.elapsed().as_secs_f64();
    spa.flush().expect("flush before drop");

    let (live_scores, live_ranks) = sweep(&spa, users, tracer);
    let shards = spa.shard_count();
    drop(spa);

    let last_tail = tails.last().map_or(0, |t| t.len() as u64);
    let mut recover_s = Vec::new();
    let mut first_report = None;
    for attempt in 0..tails.len() {
        let start = Instant::now();
        let (recovered, report) = tracer
            .time("shard.recover", None, attempt as u64, || {
                ShardedSpa::recover(
                    &courses(),
                    SpaConfig::default(),
                    &campaigns(),
                    dir,
                    LogConfig::default(),
                )
            })
            .expect("recover");
        recover_s.push(start.elapsed().as_secs_f64());
        if first_report.is_some() {
            continue;
        }
        let (scores, ranks) = sweep(&recovered, users, tracer);
        if !bit_identical(&scores, &live_scores) {
            failures.push("recovered scores differ from the live platform's".into());
        }
        if ranks.len() != live_ranks.len()
            || ranks.iter().zip(&live_ranks).any(|(a, b)| !bit_identical(a, b))
        {
            failures.push("recovered rank_top_k differs from the live platform's".into());
        }
        if report.shards_from_snapshot() != shards || !report.selection_restored {
            failures.push(format!("recovery did not restore every snapshot: {report}"));
        }
        if report.total_events() + report.total_skipped() != last_tail {
            failures.push(format!(
                "recovery replayed {} + skipped {} events, the tail after the last checkpoint held {last_tail}",
                report.total_events(),
                report.total_skipped()
            ));
        }
        first_report = Some(report);
    }
    Restart {
        checkpoints: checkpoint_s,
        recoveries: recover_s,
        compact_s,
        flush_us,
        snapshot_bytes,
        wal,
        report: first_report.expect("recovered at least once"),
        failures,
        checks: 4,
    }
}

/// A per-process working directory inside the benchmark's checkout.
pub fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()))
}
