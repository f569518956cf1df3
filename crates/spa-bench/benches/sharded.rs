//! Sharded vs single-platform serving: routed ingest, batch scoring
//! and crash-recovery replay at campaign scale (20k / 100k users).
//!
//! Every call runs on the calling thread, so the sharded numbers
//! measure the cost of routing over shards against the single-platform
//! path. Outputs are bit-identical — `tests/shard_equivalence.rs`
//! enforces that.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use spa_core::platform::{Spa, SpaConfig};
use spa_core::shard::ShardedSpa;
use spa_ml::Dataset;
use spa_store::log::LogConfig;
use spa_synth::catalog::CourseCatalog;
use spa_types::{ActionId, CourseId, EventKind, LifeLogEvent, Timestamp, UserId};
use std::hint::black_box;

const SHARDS: usize = 8;

fn action_stream(n_users: usize) -> Vec<LifeLogEvent> {
    (0..n_users as u32)
        .map(|raw| {
            LifeLogEvent::new(
                UserId::new(raw),
                Timestamp::from_millis(raw as u64),
                EventKind::Action {
                    action: ActionId::new(raw % 984),
                    course: Some(CourseId::new(raw % 25)),
                },
            )
        })
        .collect()
}

fn bench_ingest(c: &mut Criterion) {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    for &n in &[20_000usize, 100_000] {
        let stream = action_stream(n);
        let mut group = c.benchmark_group("sharded_ingest");
        group.sample_size(10);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("single_{}k", n / 1000), |b| {
            b.iter_batched(
                || Spa::new(&courses, SpaConfig::default()),
                |spa| {
                    spa.ingest_batch(stream.iter()).unwrap();
                    spa.stats().actions
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_function(format!("sharded{SHARDS}_{}k", n / 1000), |b| {
            b.iter_batched(
                || ShardedSpa::new(&courses, SpaConfig::default(), SHARDS).unwrap(),
                |sharded| {
                    sharded.ingest_batch(stream.iter()).unwrap();
                    sharded.stats().actions
                },
                BatchSize::LargeInput,
            )
        });
        group.finish();
    }
}

fn bench_score(c: &mut Criterion) {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    for &n in &[20_000usize, 100_000] {
        let stream = action_stream(n);
        let users: Vec<UserId> = (0..n as u32).map(UserId::new).collect();

        let mut single = Spa::new(&courses, SpaConfig::default());
        single.ingest_batch(stream.iter()).unwrap();
        let sharded = ShardedSpa::new(&courses, SpaConfig::default(), SHARDS).unwrap();
        sharded.ingest_batch(stream.iter()).unwrap();

        // one labelled example per 10th user, split by topic slot
        let mut data = Dataset::new(75);
        for &user in users.iter().step_by(10) {
            let row = single.advice_row(user).unwrap();
            data.push(&row, if user.raw() % 2 == 0 { 1.0 } else { -1.0 }).unwrap();
        }
        single.train_selection(&data).unwrap();
        sharded.train_selection(&data).unwrap();

        let mut group = c.benchmark_group("sharded_score");
        group.sample_size(10);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("single_{}k", n / 1000), |b| {
            b.iter(|| black_box(single.score_users(&users).unwrap().len()))
        });
        group.bench_function(format!("sharded{SHARDS}_{}k", n / 1000), |b| {
            b.iter(|| black_box(sharded.score_users(&users).unwrap().len()))
        });
        group.bench_function(format!("single_rank_{}k", n / 1000), |b| {
            b.iter(|| black_box(single.rank_users(&users).unwrap().len()))
        });
        group.bench_function(format!("sharded{SHARDS}_rank_{}k", n / 1000), |b| {
            b.iter(|| black_box(sharded.rank(&users).unwrap().len()))
        });
        // Fig-6 "contact the top fraction": top-10% selection without
        // the full audience sort
        group.bench_function(format!("single_top10_{}k", n / 1000), |b| {
            b.iter(|| black_box(single.rank_top_k(&users, n / 10).unwrap().len()))
        });
        group.bench_function(format!("sharded{SHARDS}_top10_{}k", n / 1000), |b| {
            b.iter(|| black_box(sharded.rank_top_k(&users, n / 10).unwrap().len()))
        });
        group.finish();
    }
}

fn bench_durability(c: &mut Criterion) {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let n = 20_000usize;
    let stream = action_stream(n);

    // write-ahead-logged ingest (log recreated per sample)
    let mut group = c.benchmark_group("sharded_durability");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(format!("wal_ingest_sharded{SHARDS}_20k"), |b| {
        let mut round = 0u64;
        b.iter_batched(
            || {
                round += 1;
                let root = std::env::temp_dir()
                    .join(format!("spa-bench-wal-{}-{round}", std::process::id()));
                let _ = std::fs::remove_dir_all(&root);
                ShardedSpa::with_log(
                    &courses,
                    SpaConfig::default(),
                    SHARDS,
                    root,
                    LogConfig::default(),
                )
                .unwrap()
            },
            |sharded| {
                sharded.ingest_batch(stream.iter()).unwrap();
                sharded.flush().unwrap();
                sharded.stats().actions
            },
            BatchSize::LargeInput,
        )
    });

    // recovery replay over a fixed on-disk log set
    let root = std::env::temp_dir().join(format!("spa-bench-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    {
        let sharded = ShardedSpa::with_log(
            &courses,
            SpaConfig::default(),
            SHARDS,
            &root,
            LogConfig::default(),
        )
        .unwrap();
        sharded.ingest_batch(stream.iter()).unwrap();
        sharded.flush().unwrap();
    }
    group.bench_function(format!("recover_sharded{SHARDS}_20k"), |b| {
        b.iter(|| {
            let (recovered, report) = ShardedSpa::recover(
                &courses,
                SpaConfig::default(),
                &[],
                &root,
                LogConfig::default(),
            )
            .unwrap();
            black_box((recovered.shard_count(), report.total_events()))
        })
    });
    group.finish();

    // clean up the bench's temp trees
    let _ = std::fs::remove_dir_all(&root);
    for round in 1..=20u64 {
        let _ = std::fs::remove_dir_all(
            std::env::temp_dir().join(format!("spa-bench-wal-{}-{round}", std::process::id())),
        );
    }
}

fn benches(c: &mut Criterion) {
    bench_ingest(c);
    bench_score(c);
    bench_durability(c);
}

criterion_group!(sharded, benches);
criterion_main!(sharded);
