//! Chaos soak: crash-identical serving under production weather.
//!
//! A write-ahead-logged [`ShardedSpa`] serves a full lifecycle scenario
//! (Zipf-skewed hot users, arriving/departing cohorts, valence drift,
//! overlapping campaign flights), with the admin mutation surface —
//! attribute imports, ignored-campaign punishments, observed outcomes —
//! interleaved into the stream, while a seeded [`FaultPlan`] injects
//! torn writes, transient `EIO` bursts, fsync failures and read-side
//! bit rot. The platform is killed and recovered *every cycle* — at
//! whatever point the fault plan chose — and after every recovery its
//! observable surface (stats, advice rows, scores, rankings, EIT
//! schedules, selection weights) must be **bit-identical** to a
//! fault-free in-memory reference fed the surviving event stream.
//!
//! The second pillar is *exact fault accounting*: when the soak ends,
//! every injection in the plan's ledger must be attributable — absorbed
//! by the write path's bounded retry, surfaced in an error we observed,
//! counted as a snapshot fallback / compaction skip, or consumed by a
//! failed recovery attempt. Zero silent divergence, zero unaccounted
//! faults.
//!
//! `SPA_CHAOS_CYCLES` overrides the cycle count (CI runs a bounded
//! fixed-seed soak; the default here already exceeds the 50-cycle
//! floor).

use spa::core::platform::SpaConfig;
use spa::core::{RecoveryReport, ShardedSpa};
use spa::ml::Dataset;
use spa::store::fault::{
    FaultCounts, FaultPlan, FaultPlanConfig, SplitMix64, INJECTED_FSYNC_FAILURE,
    INJECTED_TORN_WRITE, INJECTED_TRANSIENT_EIO,
};
use spa::store::log::{EventLog, LogConfig, LogPosition, WriteFaultCounters};
use spa::store::ShardedEventLog;
use spa::synth::catalog::CourseCatalog;
use spa::synth::{ScenarioEngine, ScenarioSpec};
use spa::types::{CampaignId, EmotionalAttribute, ShardId, SpaError, UserId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spa-chaos-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn soak_cycles(default: usize) -> usize {
    std::env::var("SPA_CHAOS_CYCLES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Everything the soak *observed*: at the end, the plan's ledger must
/// equal these tallies exactly — every injection accounted, none
/// silently absorbed.
#[derive(Default)]
struct FaultTally {
    /// Write-path retry counters, accumulated across every platform
    /// incarnation (counters die with the writer on each crash).
    writers: WriteFaultCounters,
    /// Torn-write markers seen in surfaced errors (ingest + checkpoint).
    torn_markers: u64,
    /// Fsync-failure markers seen in surfaced errors.
    fsync_markers: u64,
    /// Transient markers seen in **checkpoint** errors only: the
    /// snapshot path has no retry and no counters, so the error text is
    /// its sole record. Ingest-path transients are covered by
    /// `writers` (absorbed or fatal), never double-counted from text.
    snapshot_transients: u64,
    /// Read corruptions surfaced: failed recovery attempts + snapshot
    /// fallbacks + selection-restore retries + compaction skips.
    rot_surfaced: u64,
    /// Stale temp files recovery removed (each one a crashed checkpoint
    /// the fault plan interrupted).
    stale_temps: u64,
    crashes: u64,
    recover_attempts: u64,
}

impl FaultTally {
    /// Counts injection markers in a surfaced error. Aggregated
    /// multi-shard errors preserve every shard's text, so occurrences
    /// (not presence) are counted. `from_checkpoint` gates transient
    /// markers to the snapshot path (see field doc).
    fn observe_error(&mut self, error: &SpaError, from_checkpoint: bool) {
        let text = error.to_string();
        self.torn_markers += text.matches(INJECTED_TORN_WRITE).count() as u64;
        self.fsync_markers += text.matches(INJECTED_FSYNC_FAILURE).count() as u64;
        if from_checkpoint {
            self.snapshot_transients += text.matches(INJECTED_TRANSIENT_EIO).count() as u64;
        }
    }
}

/// Interleaves the admin mutation surface — attribute imports,
/// ignored-campaign punishments, observed outcomes — into the weather.
/// All three ride write-ahead logs (the first two the owning shard's,
/// outcomes the root-level selection log) and face the same injected
/// faults as organic traffic. Successful ops are mirrored onto the
/// reference in lockstep (WAL-before-apply means an error leaves live
/// memory untouched, so only acknowledged ops mirror); a surfaced
/// fault poisons the owning log and becomes the cycle's crash point.
/// Returns `true` on such a crash.
fn admin_weather(
    live: &ShardedSpa,
    reference: &ShardedSpa,
    users: &[UserId],
    campaigns: &[(CampaignId, Vec<EmotionalAttribute>)],
    positions: &mut [LogPosition],
    pacer: &mut SplitMix64,
    tally: &mut FaultTally,
) -> bool {
    for _ in 0..pacer.gen_range(3) {
        let user = users[pacer.gen_range(users.len() as u64) as usize];
        let result = match pacer.gen_range(3) {
            0 => {
                let width = pacer.gen_range(6) as usize + 1;
                let values: Vec<f64> = (0..width).map(|i| (i as f64 + 1.0) * 0.0625).collect();
                live.import_objective(user, &values)
                    .map(|()| reference.import_objective(user, &values).unwrap())
            }
            1 => {
                let campaign = campaigns[pacer.gen_range(campaigns.len() as u64) as usize].0;
                live.punish_ignored(user, campaign)
                    .map(|()| reference.punish_ignored(user, campaign).unwrap())
            }
            _ => {
                if live.advice_row(user).is_err() {
                    continue; // no model yet — nothing to observe
                }
                let responded = pacer.gen_range(2) == 0;
                live.observe_outcome(user, responded)
                    .map(|()| reference.observe_outcome(user, responded).unwrap())
            }
        };
        match result {
            Ok(()) => {
                // imports and punishments ride the shard WALs: advance
                // the mirrored positions past them so a later resync
                // does not double-apply them
                for (index, position) in positions.iter_mut().enumerate() {
                    *position = live.log().unwrap().buffered_position(ShardId::new(index as u32));
                }
            }
            Err(error) => {
                tally.observe_error(&error, false);
                return true;
            }
        }
    }
    false
}

/// Drives `reference` through the events the crashed platform durably
/// logged past each shard's already-mirrored position, with **clean**
/// reads (the reference must see what is really on disk, not what the
/// fault plan pretends is there). Recovery has already healed torn
/// tails, so replay sees exactly the acknowledged prefix.
fn resync_reference(
    reference: &ShardedSpa,
    root: &Path,
    positions: &mut [LogPosition],
    live: &ShardedSpa,
) {
    for (index, position) in positions.iter_mut().enumerate() {
        let shard = ShardId::new(index as u32);
        let dir = ShardedEventLog::shard_path(root, shard);
        let iter = EventLog::replay_iter_from(&dir, *position).unwrap();
        for event in iter {
            // a platform-rejected event fails identically here and on
            // the live replay — ignore it exactly as recovery did
            let _ = reference.ingest(&event.unwrap());
        }
        *position = live.log().unwrap().buffered_position(shard);
    }
}

/// Asserts the recovered platform's observable surface is bit-identical
/// to the fault-free reference.
fn verify_bit_identity(live: &ShardedSpa, reference: &ShardedSpa, users: &[UserId], cycle: usize) {
    assert_eq!(live.stats(), reference.stats(), "cycle {cycle}: preprocessor stats diverge");
    assert_eq!(live.selection().is_trained(), reference.selection().is_trained());
    assert_eq!(
        live.selection().svm().bias().to_bits(),
        reference.selection().svm().bias().to_bits(),
        "cycle {cycle}: selection bias diverges"
    );
    for (a, b) in live.selection().svm().weights().iter().zip(reference.selection().svm().weights())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "cycle {cycle}: selection weights diverge");
    }
    let mut known = Vec::new();
    for &user in users {
        assert_eq!(
            live.next_eit_question(user).id,
            reference.next_eit_question(user).id,
            "cycle {cycle}: EIT schedule diverges for {user}"
        );
        match (live.advice_row(user), reference.advice_row(user)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.indices(), b.indices(), "cycle {cycle}: {user} advice indices");
                for (x, y) in a.values().iter().zip(b.values()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "cycle {cycle}: {user} advice values");
                }
                known.push(user);
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("cycle {cycle}: {user} known on one platform only: {a:?} vs {b:?}"),
        }
    }
    if live.selection().is_trained() && !known.is_empty() {
        let scores_live = live.score_users(&known).unwrap();
        let scores_ref = reference.score_users(&known).unwrap();
        for ((ua, sa), (ub, sb)) in scores_live.iter().zip(scores_ref.iter()) {
            assert_eq!(ua, ub);
            assert_eq!(sa.to_bits(), sb.to_bits(), "cycle {cycle}: score diverges for {ua}");
        }
        let rank_live = live.rank(&known).unwrap();
        let rank_ref = reference.rank(&known).unwrap();
        for ((ua, sa), (ub, sb)) in rank_live.iter().zip(rank_ref.iter()) {
            assert_eq!(ua, ub, "cycle {cycle}: ranking order diverges");
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
    }
}

/// No atomic-write temp file may survive a recovery (the sweep is part
/// of [`ShardedSpa::recover`] and its count lands in the report).
fn assert_no_stale_temps(root: &Path) {
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                assert!(
                    !name.ends_with(".snap-tmp") && !name.ends_with(".tmp"),
                    "stale temp survived recovery: {}",
                    path.display()
                );
            }
        }
    }
}

/// Recovers until a usable platform comes back, charging every
/// injected-rot casualty (failed attempt, snapshot fallback, lost
/// selection restore) to the tally. The final safety net recovers with
/// a zero read allowance and must succeed.
fn recover_until_ok(
    courses: &CourseCatalog,
    campaigns: &[(CampaignId, Vec<EmotionalAttribute>)],
    root: &Path,
    log_config: &LogConfig,
    faults: &Arc<FaultPlan>,
    tally: &mut FaultTally,
) -> (ShardedSpa, RecoveryReport) {
    const FAULTY_ATTEMPTS: u64 = 8;
    let mut attempt = 0u64;
    loop {
        attempt += 1;
        tally.recover_attempts += 1;
        assert!(attempt <= FAULTY_ATTEMPTS + 2, "recovery failed even with faults disabled");
        // one read corruption may be injected per attempt — exact
        // accounting depends on the allowance being consumed by at most
        // one of: a failed attempt, a fallback, a lost selection restore
        faults.allow_read_faults(if attempt <= FAULTY_ATTEMPTS { 1 } else { 0 });
        match ShardedSpa::recover_with_io(
            courses,
            SpaConfig::default(),
            campaigns,
            root,
            log_config.clone(),
            faults.clone(),
        ) {
            Ok((spa, report)) => {
                if report.selection_restored {
                    tally.rot_surfaced += report.snapshot_fallbacks;
                    tally.stale_temps += report.stale_temps_removed;
                    return (spa, report);
                }
                // the injection ate the selection snapshot read: loud
                // in the report (selection_restored = false), and the
                // allowance guarantees nothing else was hit
                assert_eq!(report.snapshot_fallbacks, 0);
                tally.rot_surfaced += 1;
                tally.stale_temps += report.stale_temps_removed;
            }
            Err(error) => {
                // only injected rot can fail recovery here — and it
                // surfaces as loud corruption, never as wrong state
                assert!(
                    matches!(&error, SpaError::Corrupt(_)),
                    "recovery failed for a non-rot reason: {error}"
                );
                tally.rot_surfaced += 1;
            }
        }
    }
}

/// The full soak: `cycles` crash/recover cycles over a lifecycle
/// scenario with all four fault kinds armed.
fn run_soak(
    name: &str,
    seed: u64,
    shards: usize,
    cycles: usize,
    faults_config: FaultPlanConfig,
) -> FaultCounts {
    let root = tmp_root(name);
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let config = SpaConfig::default();
    // small segments so checkpoints/compaction genuinely roll and
    // delete files mid-soak
    let log_config = LogConfig { segment_bytes: 2048, fsync: false };
    const WARMUP_TICKS: usize = 4;
    let spec = ScenarioSpec::production_weather(seed, (WARMUP_TICKS + cycles * 4 + 8) as u32);
    let users: Vec<UserId> = (0..spec.user_universe()).map(UserId::new).collect();
    let mut engine = ScenarioEngine::new(spec).unwrap();
    let campaigns = engine.all_campaigns();
    let faults = Arc::new(FaultPlan::seeded(faults_config));
    let mut tally = FaultTally::default();

    let mut live = ShardedSpa::with_log_io(
        &courses,
        config.clone(),
        shards,
        &root,
        log_config.clone(),
        faults.clone(),
    )
    .unwrap();
    let reference = ShardedSpa::new(&courses, config.clone(), shards).unwrap();
    for (campaign, appeal) in &campaigns {
        live.register_campaign(*campaign, appeal);
        reference.register_campaign(*campaign, appeal);
    }
    let mut ref_positions = vec![LogPosition::default(); shards];

    // ---- warmup (faults disarmed): populate, train, checkpoint ----
    for _ in 0..WARMUP_TICKS {
        let tick = engine.next_tick().unwrap();
        let live_count = live.ingest_batch(tick.events.iter()).unwrap();
        assert_eq!(reference.ingest_batch(tick.events.iter()).unwrap(), live_count);
    }
    for (index, position) in ref_positions.iter_mut().enumerate() {
        *position = live.log().unwrap().buffered_position(ShardId::new(index as u32));
    }
    {
        // one shared dataset trains both platforms to bit-identical
        // selection weights; from here the weights keep drifting under
        // interleaved outcome observations, so every recovery must
        // rebuild them from the checkpointed snapshot plus the
        // selection WAL tail
        let mut data = Dataset::new(75);
        for &user in &users {
            if let Ok(row) = live.advice_row(user) {
                data.push(&row, if row.get(65) > 0.4 { 1.0 } else { -1.0 }).unwrap();
            }
        }
        live.train_selection(&data).unwrap();
        reference.train_selection(&data).unwrap();
    }
    live.checkpoint().unwrap();
    verify_bit_identity(&live, &reference, &users, usize::MAX);

    // ---- the weather starts ----
    faults.set_armed(true);
    let mut pacer = SplitMix64::new(seed ^ 0x9ACE_0FCA);
    for cycle in 0..cycles {
        let ticks_this_cycle = 2 + pacer.gen_range(3) as usize; // 2..=4
        let mut crashed_mid_batch = false;
        for _ in 0..ticks_this_cycle {
            let tick = engine.next_tick().expect("scenario sized past the soak");
            match live.ingest_batch(tick.events.iter()) {
                Ok(live_count) => {
                    // clean batch: mirror it and advance the synced
                    // positions past it
                    let ref_count = reference.ingest_batch(tick.events.iter()).unwrap();
                    assert_eq!(live_count, ref_count, "cycle {cycle}: applied counts diverge");
                    for (index, position) in ref_positions.iter_mut().enumerate() {
                        *position =
                            live.log().unwrap().buffered_position(ShardId::new(index as u32));
                    }
                    if admin_weather(
                        &live,
                        &reference,
                        &users,
                        &campaigns,
                        &mut ref_positions,
                        &mut pacer,
                        &mut tally,
                    ) {
                        crashed_mid_batch = true;
                        break;
                    }
                }
                Err(error) => {
                    // a write fault got through the retry budget: the
                    // failing shards are poisoned — this is the crash
                    // point. The reference resyncs from the healed WAL
                    // after recovery.
                    tally.observe_error(&error, false);
                    crashed_mid_batch = true;
                    break;
                }
            }
        }
        if !crashed_mid_batch {
            if cycle % 4 == 1 {
                if let Err(error) = live.checkpoint() {
                    // a failed checkpoint is loud and non-poisoning:
                    // the previous checkpoint stays intact and serving
                    // continues
                    tally.observe_error(&error, true);
                }
            }
            if cycle % 6 == 3 {
                faults.allow_read_faults(1);
                let report = live.compact().unwrap();
                tally.rot_surfaced += report.shards_skipped as u64;
            }
        }
        // kill the platform — every cycle ends in a crash, poisoned or
        // not. Writer-side retry counters die with it: accumulate first.
        tally.writers.accumulate(live.log().unwrap().write_fault_counters());
        tally.writers.accumulate(live.selection_log().unwrap().write_fault_counters());
        tally.crashes += 1;
        drop(live);
        let (recovered, _report) =
            recover_until_ok(&courses, &campaigns, &root, &log_config, &faults, &mut tally);
        live = recovered;
        assert_no_stale_temps(&root);
        resync_reference(&reference, &root, &mut ref_positions, &live);
        verify_bit_identity(&live, &reference, &users, cycle);
    }
    faults.set_armed(false);
    tally.writers.accumulate(live.log().unwrap().write_fault_counters());
    tally.writers.accumulate(live.selection_log().unwrap().write_fault_counters());

    // ---- exact accounting: every injection in the ledger is ours ----
    let counts = faults.ledger().counts();
    assert_eq!(
        counts.torn_writes, tally.torn_markers,
        "every torn write must surface in exactly one observed error"
    );
    assert_eq!(
        counts.fsync_failures, tally.fsync_markers,
        "every fsync failure must surface in exactly one observed error"
    );
    assert_eq!(
        counts.transient_eios,
        tally.writers.transients_absorbed
            + tally.writers.transients_fatal
            + tally.snapshot_transients,
        "every transient EIO must be absorbed by retry, fatal in an ingest error, \
         or surfaced by a checkpoint error"
    );
    assert_eq!(
        counts.read_corruptions, tally.rot_surfaced,
        "every read corruption must be a failed recovery attempt, a snapshot \
         fallback, a lost selection restore, or a compaction skip"
    );
    assert!(tally.crashes >= cycles as u64, "every cycle must crash and recover");
    eprintln!(
        "[{name}] {} cycles, {} crashes, {} recover attempts: {} torn, {} transient \
         ({} absorbed), {} fsync, {} rot, {} stale temps swept — all accounted",
        cycles,
        tally.crashes,
        tally.recover_attempts,
        counts.torn_writes,
        counts.transient_eios,
        tally.writers.transients_absorbed,
        counts.fsync_failures,
        counts.read_corruptions,
        tally.stale_temps,
    );
    let _ = std::fs::remove_dir_all(&root);
    counts
}

/// The acceptance soak: ≥50 crash/recover cycles, three shards, all
/// four fault kinds armed at rates chosen so each reliably fires.
#[test]
fn chaos_soak_serving_is_crash_identical_under_faults() {
    let cycles = soak_cycles(55).max(50);
    let faults = FaultPlanConfig {
        seed: 0xC4A0_5EED,
        torn_write_per_10k: 60,
        transient_eio_per_10k: 150,
        transient_burst_max: 2,
        fsync_failure_per_10k: 900,
        read_rot_per_10k: 1500,
    };
    let counts = run_soak("main", 2026, 3, cycles, faults);
    // all four kinds must actually have fired — a soak that never
    // injected proves nothing
    assert!(counts.torn_writes >= 1, "soak never injected a torn write");
    assert!(counts.transient_eios >= 1, "soak never injected a transient EIO");
    assert!(counts.fsync_failures >= 1, "soak never injected an fsync failure");
    assert!(counts.read_corruptions >= 1, "soak never injected read rot");
}

/// Single-shard soak: the degenerate sharding exercises the same
/// contracts without multi-shard aggregation.
#[test]
fn chaos_soak_single_shard() {
    run_soak(
        "single",
        7,
        1,
        soak_cycles(14).min(20),
        FaultPlanConfig {
            seed: 0x51_0001,
            torn_write_per_10k: 80,
            transient_eio_per_10k: 200,
            transient_burst_max: 3,
            fsync_failure_per_10k: 1200,
            read_rot_per_10k: 2000,
        },
    );
}
