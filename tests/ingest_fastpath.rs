//! Differential tests for the lock-light batched ingest engine.
//!
//! The write path was rebuilt around striped atomic stats counters, a
//! per-registry-shard bucketed apply (one lock acquisition per bucket,
//! not per event), zero-allocation WAL framing and a per-shard
//! log→apply pipeline. These proptests pin all of it **bit-identical**
//! to the serial per-event reference — arbitrary event streams
//! (including rejected events), arbitrary batch splits and shard
//! counts: scores, rankings, stats, EIT schedules, the WAL byte stream,
//! and recover-after-crash must all be equal.

use proptest::prelude::*;
use spa::prelude::*;
use std::path::PathBuf;

/// Raw generator tuple: (user, kind selector, id payload, small
/// payload, valence).
type RawOp = (u32, u8, u32, u8, f64);

const N_USERS: u32 = 12;
const REGISTERED: CampaignId = CampaignId::new(1);
const UNREGISTERED: CampaignId = CampaignId::new(99);

fn courses() -> CourseCatalog {
    CourseCatalog::generate(25, 5, 3).unwrap()
}

/// Decodes one raw tuple into an event. Course ids run past the
/// catalog (unknown courses), question ids past the bank (rejected
/// answers), and campaigns cover registered/unregistered/none — the
/// full accept/reject surface of the pre-processor.
fn decode_op(at: u64, op: &RawOp) -> LifeLogEvent {
    let (user_seed, kind_sel, a, b, valence) = *op;
    let user = UserId::new(user_seed % N_USERS);
    let campaign = match b % 3 {
        0 => None,
        1 => Some(REGISTERED),
        _ => Some(UNREGISTERED),
    };
    let kind = match kind_sel % 8 {
        0 | 1 => EventKind::Action {
            action: ActionId::new(a % 984),
            course: if b % 3 == 0 { None } else { Some(CourseId::new(a % 40)) },
        },
        2 => EventKind::Rating { course: CourseId::new(a % 40), stars: b % 6 },
        3 => EventKind::Transaction { course: CourseId::new(a % 40), campaign },
        4 => EventKind::MessageDelivered { campaign: campaign.unwrap_or(REGISTERED) },
        5 => EventKind::MessageOpened { campaign: campaign.unwrap_or(REGISTERED) },
        6 => EventKind::EitAnswer {
            // the standard bank has 40 questions: ids in [40, 60) are
            // rejected identically on every path
            question: QuestionId::new(a % 60),
            answer: Valence::new(valence),
        },
        _ => EventKind::EitSkipped { question: QuestionId::new(a % 60) },
    };
    LifeLogEvent::new(user, Timestamp::from_millis(at), kind)
}

fn stream_of(ops: &[RawOp]) -> Vec<LifeLogEvent> {
    ops.iter().enumerate().map(|(i, op)| decode_op(i as u64, op)).collect()
}

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (0u32..N_USERS, 0u8..8, 0u32..10_000, 0u8..250, -1.0f64..1.0),
        30..140,
    )
}

fn fresh_single(courses: &CourseCatalog) -> Spa {
    let spa = Spa::new(courses, SpaConfig::default());
    spa.register_campaign(REGISTERED, &[EmotionalAttribute::Hopeful, EmotionalAttribute::Lively]);
    spa
}

fn fresh_sharded(courses: &CourseCatalog, shards: usize) -> ShardedSpa {
    let sharded = ShardedSpa::new(courses, SpaConfig::default(), shards).unwrap();
    sharded
        .register_campaign(REGISTERED, &[EmotionalAttribute::Hopeful, EmotionalAttribute::Lively]);
    sharded
}

/// Serial reference: per-event `Spa::ingest` loop; returns how many
/// events the platform accepted.
fn reference_ingest(spa: &Spa, stream: &[LifeLogEvent]) -> usize {
    stream.iter().filter(|event| spa.ingest(event).is_ok()).count()
}

fn assert_rows_bit_identical(a: &SparseVec, b: &SparseVec, what: &str) {
    assert_eq!(a.indices(), b.indices(), "{what}: sparsity pattern diverges");
    for (x, y) in a.values().iter().zip(b.values().iter()) {
        assert!(x.to_bits() == y.to_bits(), "{what}: {x:?} vs {y:?}");
    }
}

/// Every per-user observable plus the aggregate counters must match
/// the reference platform (`get_model` closures adapt single/sharded).
fn assert_platform_equals_reference(
    reference: &Spa,
    stats: spa::core::preprocessor::PreprocessorStats,
    feature_row: impl Fn(UserId) -> SparseVec,
    advice_row: impl Fn(UserId) -> SparseVec,
    next_question: impl Fn(UserId) -> QuestionId,
    what: &str,
) {
    assert_eq!(stats, reference.stats(), "{what}: stats diverge");
    for raw in 0..N_USERS {
        let user = UserId::new(raw);
        assert_rows_bit_identical(
            &reference.feature_row(user),
            &feature_row(user),
            &format!("{what}: {user} feature row"),
        );
        assert_rows_bit_identical(
            &reference.advice_row(user).unwrap(),
            &advice_row(user),
            &format!("{what}: {user} advice row"),
        );
        assert_eq!(
            reference.next_eit_question(user).id,
            next_question(user),
            "{what}: EIT schedule diverges for {user}"
        );
    }
}

/// Training data derived from the reference rows, shared by every
/// platform under comparison so scores are comparable bit-for-bit.
fn training_data(reference: &Spa) -> Dataset {
    let mut data = Dataset::new(reference.schema().len());
    for raw in 0..N_USERS {
        let row = reference.advice_row(UserId::new(raw)).unwrap();
        data.push(&row, if row.get(65) > 0.2 { 1.0 } else { -1.0 }).unwrap();
    }
    data
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spa-ingest-fp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary streams split at arbitrary points into `ingest_batch`
    /// calls, across shard counts: the bucketed /
    /// pipelined engines equal the serial per-event reference on every
    /// observable, and the accepted-event counts agree (the shared
    /// skip-and-count semantics).
    #[test]
    fn batched_ingest_equals_serial_reference(
        ops in raw_ops(),
        cut_seed in 1usize..1000,
        shards in 1usize..9,
    ) {
        let courses = courses();
        let stream = stream_of(&ops);
        let cut = (cut_seed % stream.len().max(1)).max(1);

        let reference = fresh_single(&courses);
        let accepted = reference_ingest(&reference, &stream);

        // single platform, batched in two arbitrary chunks
        let single = fresh_single(&courses);
        let applied_single = single.ingest_batch(stream[..cut].iter()).unwrap()
            + single.ingest_batch(stream[cut..].iter()).unwrap();
        prop_assert_eq!(applied_single, accepted, "single batch count diverges");
        assert_platform_equals_reference(
            &reference,
            single.stats(),
            |u| single.feature_row(u),
            |u| single.advice_row(u).unwrap(),
            |u| single.next_eit_question(u).id,
            "single ingest_batch",
        );

        // sharded platform, batched
        let sharded = fresh_sharded(&courses, shards);
        let applied = sharded.ingest_batch(stream[..cut].iter()).unwrap()
            + sharded.ingest_batch(stream[cut..].iter()).unwrap();
        prop_assert_eq!(applied, accepted, "sharded batch count diverges");
        assert_platform_equals_reference(
            &reference,
            sharded.stats(),
            |u| sharded.feature_row(u),
            |u| sharded.advice_row(u).unwrap(),
            |u| sharded.next_eit_question(u).id,
            &format!("sharded({shards}) ingest_batch"),
        );

        // scores and rankings under one shared trained selection
        let mut single = single;
        let sharded = sharded;
        let mut reference = reference;
        let data = training_data(&reference);
        reference.train_selection(&data).unwrap();
        single.train_selection(&data).unwrap();
        sharded.train_selection(&data).unwrap();
        let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();
        let expected_scores = reference.score_users(&users).unwrap();
        let expected_rank = reference.rank_users(&users).unwrap();
        for (scored, ranking, what) in [
            (single.score_users(&users).unwrap(), single.rank_users(&users).unwrap(), "single"),
            (sharded.score_users(&users).unwrap(), sharded.rank(&users).unwrap(), "sharded"),
        ] {
            for ((ua, sa), (ub, sb)) in scored.iter().zip(expected_scores.iter()) {
                prop_assert_eq!(ua, ub, "{} score order diverges", what);
                prop_assert_eq!(sa.to_bits(), sb.to_bits(), "{} score diverges for {}", what, ua);
            }
            for ((ua, sa), (ub, sb)) in ranking.iter().zip(expected_rank.iter()) {
                prop_assert_eq!(ua, ub, "{} ranking diverges", what);
                prop_assert_eq!(sa.to_bits(), sb.to_bits(), "{} rank score diverges", what);
            }
        }
    }

    /// The WAL byte stream is pinned: batched ingest (pipelined,
    /// grouped apply) must write byte-for-byte the same per-shard
    /// segment files as per-event ingest, and a crash + recover of the
    /// batched root must rebuild the reference platform exactly.
    #[test]
    fn wal_bytes_and_recovery_are_pinned(
        ops in raw_ops(),
        cut_seed in 1usize..1000,
        shards in 1usize..5,
    ) {
        let courses = courses();
        let stream = stream_of(&ops);
        let cut = (cut_seed % stream.len().max(1)).max(1);
        let campaigns =
            [(REGISTERED, vec![EmotionalAttribute::Hopeful, EmotionalAttribute::Lively])];
        // tiny segments so batches cross several roll boundaries
        let log_config = LogConfig { segment_bytes: 256, fsync: false };

        let reference = fresh_single(&courses);
        let accepted = reference_ingest(&reference, &stream);

        let root_event = tmp_root("event");
        let root_batch = tmp_root("batch");
        {
            let by_event = ShardedSpa::with_log(
                &courses, SpaConfig::default(), shards, &root_event, log_config.clone(),
            ).unwrap();
            by_event.register_campaign(campaigns[0].0, &campaigns[0].1);
            for event in &stream {
                let _ = by_event.ingest(event);
            }
            by_event.flush().unwrap();

            let by_batch = ShardedSpa::with_log(
                &courses, SpaConfig::default(), shards, &root_batch, log_config.clone(),
            ).unwrap();
            by_batch.register_campaign(campaigns[0].0, &campaigns[0].1);
            let applied = by_batch.ingest_batch(stream[..cut].iter()).unwrap()
                + by_batch.ingest_batch(stream[cut..].iter()).unwrap();
            prop_assert_eq!(applied, accepted);
            by_batch.flush().unwrap();

            // identical segment layout, identical bytes, shard by shard
            for shard in 0..shards {
                let dir_e = ShardedEventLog::shard_path(&root_event, ShardId::new(shard as u32));
                let dir_b = ShardedEventLog::shard_path(&root_batch, ShardId::new(shard as u32));
                let list = |dir: &std::path::Path| {
                    let mut names: Vec<String> = std::fs::read_dir(dir)
                        .unwrap()
                        .map(|e| e.unwrap().file_name().into_string().unwrap())
                        .filter(|n| n.starts_with("segment-"))
                        .collect();
                    names.sort();
                    names
                };
                let segments = list(&dir_e);
                prop_assert_eq!(&segments, &list(&dir_b), "segment layout diverges");
                for name in segments {
                    let a = std::fs::read(dir_e.join(&name)).unwrap();
                    let b = std::fs::read(dir_b.join(&name)).unwrap();
                    prop_assert_eq!(a, b, "shard {} {}: WAL bytes diverge", shard, name);
                }
            }
        } // crash: both platforms dropped

        let (recovered, report) = ShardedSpa::recover(
            &courses, SpaConfig::default(), &campaigns, &root_batch, log_config,
        ).unwrap();
        prop_assert_eq!(report.total_events(), accepted as u64);
        prop_assert_eq!(
            report.total_skipped() as usize,
            stream.len() - accepted,
            "recovery must skip exactly the events live ingest rejected"
        );
        assert_platform_equals_reference(
            &reference,
            recovered.stats(),
            |u| recovered.feature_row(u),
            |u| recovered.advice_row(u).unwrap(),
            |u| recovered.next_eit_question(u).id,
            "recovered-from-batched-WAL",
        );
        let _ = std::fs::remove_dir_all(&root_event);
        let _ = std::fs::remove_dir_all(&root_batch);
    }
}

/// Satellite regression: `Spa::ingest_batch` skips rejected events and
/// counts the rest — identically to `ShardedSpa::ingest_batch` and to
/// replay — instead of aborting at the first rejection (the old,
/// divergent behavior).
#[test]
fn single_platform_batch_skips_and_counts_rejected_events() {
    let courses = courses();
    let spa = fresh_single(&courses);
    let user = UserId::new(3);
    let good = |at: u64| {
        let question = spa.next_eit_question(user).id;
        LifeLogEvent::new(
            user,
            Timestamp::from_millis(at),
            EventKind::EitAnswer { question, answer: Valence::new(0.4) },
        )
    };
    let bad = LifeLogEvent::new(
        user,
        Timestamp::from_millis(1),
        EventKind::EitAnswer { question: QuestionId::new(999), answer: Valence::new(0.4) },
    );
    let a = good(0);
    let c = good(2);
    // the rejected middle event is skipped, the tail still lands
    assert_eq!(spa.ingest_batch([&a, &bad, &c]).unwrap(), 2);
    assert_eq!(spa.stats().eit_answers, 2);

    // bit-identical to the sharded batch and to the serial reference
    let reference = fresh_single(&courses);
    assert!(reference.ingest(&a).is_ok());
    assert!(reference.ingest(&bad).is_err());
    assert!(reference.ingest(&c).is_ok());
    assert_rows_bit_identical(
        &reference.feature_row(user),
        &spa.feature_row(user),
        "skip-and-count feature row",
    );
    let sharded = fresh_sharded(&courses, 3);
    assert_eq!(sharded.ingest_batch([&a, &bad, &c]).unwrap(), 2);
    assert_eq!(sharded.stats(), spa.stats());
}

/// Concurrent multi-writer stats consistency: writers on disjoint user
/// sets, mixing per-event and batched ingest, race against stats
/// readers — the final counters are exact (no lost updates on the
/// striped atomic cells) and per-user state equals a serial reference.
#[test]
fn concurrent_multi_writer_stats_are_exact() {
    const WRITERS: u32 = 4;
    const ROUNDS: u32 = 120;
    let courses = courses();
    let sharded = std::sync::Arc::new(fresh_sharded(&courses, 5));

    // each writer owns users ≡ w (mod WRITERS): per-user streams are
    // single-writer, so a serial reference is well-defined
    let streams: Vec<Vec<LifeLogEvent>> = (0..WRITERS)
        .map(|w| {
            (0..ROUNDS)
                .map(|i| {
                    decode_op(
                        (w as u64) << 32 | i as u64,
                        &(w + i * WRITERS, (i % 6) as u8, i * 7 + w, (i % 11) as u8, 0.3),
                    )
                })
                .collect()
        })
        .collect();

    let mut handles = Vec::new();
    for stream in &streams {
        let sharded = sharded.clone();
        let stream = stream.clone();
        handles.push(std::thread::spawn(move || {
            // alternate per-event and batched ingest
            let (head, tail) = stream.split_at(stream.len() / 2);
            for event in head {
                let _ = sharded.ingest(event);
            }
            sharded.ingest_batch(tail.iter()).unwrap();
        }));
    }
    // a racing reader: snapshots must always be monotone sums
    let reader = {
        let sharded = sharded.clone();
        std::thread::spawn(move || {
            let mut last_total = 0u64;
            for _ in 0..200 {
                let s = sharded.stats();
                let total = s.actions
                    + s.transactions
                    + s.eit_answers
                    + s.eit_skips
                    + s.deliveries
                    + s.opens;
                assert!(total >= last_total, "stats went backwards");
                last_total = total;
            }
        })
    };
    for handle in handles {
        handle.join().unwrap();
    }
    reader.join().unwrap();

    let reference = fresh_single(&courses);
    for stream in &streams {
        for event in stream {
            let _ = reference.ingest(event);
        }
    }
    assert_eq!(sharded.stats(), reference.stats(), "concurrent totals must be exact");
    for raw in 0..N_USERS {
        let user = UserId::new(raw);
        assert_rows_bit_identical(
            &reference.feature_row(user),
            &sharded.feature_row(user),
            &format!("concurrent {user} feature row"),
        );
    }
}
