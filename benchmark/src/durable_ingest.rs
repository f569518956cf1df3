//! `durable_ingest`: the write path. A closed loop of durable
//! `ingest_batch` calls on ~32-event batches from the steady scenario
//! (EIT answers, actions, transactions, ratings and the events the
//! platform rejects), on a 3-shard WAL platform of 20k users, then the
//! operator restart: checkpoints with post-checkpoint tails, compaction,
//! a drop and recovery.

use crate::fixture::{self, Counters, PlatformSpec};
use crate::layers::{self, WireBytes};
use crate::measure::{median, nanos, Digest, HostWindow};
use crate::trace::Tracer;
use crate::{EndToEnd, LayerInputs, Outcome, RunConfig};
use spa_core::{ApiRequest, ApiResponse, ShardedSpa, SpaApi};
use spa_synth::scenario::{ScenarioEngine, ScenarioSpec};
use spa_types::{EventKind, LifeLogEvent};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPEC: PlatformSpec = PlatformSpec {
    shards: 3,
    users: 20_000,
    answers_per_user: 2,
    train_users: 2_000,
    outcomes: 100,
};
/// Events per `ingest_batch` call.
const BATCH: usize = 32;
/// Events the scenario generates per tick: few large ticks, because
/// every tick re-sorts the user universe.
const EVENTS_PER_TICK: u32 = 65_536;
/// Events generated ahead of each timed window (more than a window can
/// apply on the reference host).
const WINDOW_EVENTS: usize = 3 * EVENTS_PER_TICK as usize;
/// Timed windows per second of `--seconds`.
const WINDOW: Duration = Duration::from_millis(500);
/// Platform set-ups per run (`setup_s` is their median), and
/// checkpoints and recoveries in the restart phase (the fastest is
/// reported).
const SETUPS: usize = 7;
const REPEATS: usize = 15;
/// Batches a traced run ingests through the API facade and the wire
/// codec after its traced phase.
const PROBE_BATCHES: usize = 1_000;
/// Events in each post-checkpoint tail.
const TAIL_EVENTS: usize = 2_000;

/// Events the platform will reject: answers to questions outside the
/// bank.
fn rejected(event: &LifeLogEvent) -> bool {
    matches!(event.kind, EventKind::EitAnswer { question, .. } if u64::from(question.raw()) >= fixture::QUESTION_BANK)
}

struct Timed {
    batch_ns: Vec<u64>,
    window_rates: Vec<f64>,
    batches: u64,
    events: u64,
    wall_s: f64,
    cpu_us: u64,
    failures: Vec<String>,
}

fn generate(engine: &mut ScenarioEngine, count: usize) -> Vec<LifeLogEvent> {
    let mut events = Vec::with_capacity(count);
    while events.len() < count {
        events.extend(engine.next_tick().expect("scenario long enough").events);
    }
    events.truncate(count);
    events
}

/// Runs timed windows until `seconds` of timed work; inputs for each
/// window are generated before its clock starts. With tracing on, each
/// call is also recorded as a span; the calls made are the same either
/// way.
fn timed_phase(
    platform: &ShardedSpa,
    engine: &mut ScenarioEngine,
    seconds: f64,
    tracer: &mut Tracer,
    next_id: &mut u64,
) -> Timed {
    let mut timed = Timed {
        batch_ns: Vec::new(),
        window_rates: Vec::new(),
        batches: 0,
        events: 0,
        wall_s: 0.0,
        cpu_us: 0,
        failures: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    while spent < budget {
        let events = generate(engine, WINDOW_EVENTS);
        let window = WINDOW.min(budget - spent);
        let host = HostWindow::start();
        let start = Instant::now();
        let mut applied_in_window = 0u64;
        for batch in events.chunks(BATCH) {
            if start.elapsed() >= window {
                break;
            }
            let id = *next_id;
            *next_id += 1;
            let call = Instant::now();
            let op = tracer.open("op.ingest_batch", call, id);
            let applied = tracer
                .time("shard.ingest_batch", op, id, || platform.ingest_batch(batch))
                .map_err(|e| e.to_string());
            timed.batch_ns.push(nanos(call.elapsed()));
            tracer.close(op);
            let expected = batch.iter().filter(|e| !rejected(e)).count();
            match applied {
                Ok(applied) if applied == expected => {}
                Ok(applied) => {
                    timed.failures.push(format!(
                        "batch {id}: applied {applied} + skipped {} != {} sent",
                        batch.len() - expected,
                        batch.len()
                    ));
                }
                Err(error) => timed.failures.push(format!("batch {id} failed: {error}")),
            }
            applied_in_window += expected as u64;
            timed.batches += 1;
            timed.events += batch.len() as u64;
        }
        let elapsed = start.elapsed();
        timed.cpu_us += host.finish().process_cpu_us;
        spent += elapsed;
        timed.window_rates.push(applied_in_window as f64 / elapsed.as_secs_f64());
    }
    timed.wall_s = spent.as_secs_f64();
    timed
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let dir = cfg.dir.join("platform");
    let population = fixture::population_events(&SPEC, cfg.seed);
    let mut tracer = Tracer::new(cfg.trace, Instant::now());
    let (platform, setup_s) = fixture::repeat_set_up(SETUPS, &dir, || {
        fixture::bring_up(&SPEC, &dir, &population, &mut tracer)
    });
    let platform = Arc::new(platform);
    let api = SpaApi::new(platform.clone());

    let mut spec = ScenarioSpec::steady(cfg.seed, SPEC.users, u32::MAX / 2);
    spec.events_per_tick = EVENTS_PER_TICK;
    let mut engine = ScenarioEngine::new(spec).expect("valid steady scenario");
    let mut wire = WireBytes::default();
    let mut next_id = 1u64;
    tracer.set_enabled(false);
    let host = HostWindow::start();
    let timed = timed_phase(&platform, &mut engine, cfg.seconds, &mut tracer, &mut next_id);
    let host = host.finish();
    tracer.set_enabled(cfg.trace);

    // the traced phase repeats the timed loop with spans on; its gap to
    // the untraced phase is the tracing overhead. The API facade and the
    // codec are timed afterwards on batches of the same kind.
    let mut traced = None;
    let mut counters = Counters::default();
    if cfg.trace {
        let before = Counters::read(&platform);
        let mut phase = timed_phase(&platform, &mut engine, cfg.seconds, &mut tracer, &mut next_id);
        counters = Counters::read(&platform).since(&before);
        for batch in generate(&mut engine, PROBE_BATCHES * BATCH).chunks(BATCH) {
            let id = next_id;
            next_id += 1;
            let request = ApiRequest::IngestBatch { events: batch.to_vec() };
            let op = tracer.open("probe.ingest_batch", Instant::now(), id);
            let probed = layers::probe(&mut tracer, op, &api, id, &request, &mut wire);
            tracer.close(op);
            phase.batches += 1;
            let expected = batch.iter().filter(|e| !rejected(e)).count();
            if !probed.codec_ok
                || !matches!(probed.response, ApiResponse::Ingested { applied } if applied as usize == expected)
            {
                phase.failures.push(format!("API batch {id} answered {:?}", probed.response));
            }
        }
        traced = Some(phase);
    }

    let tails: Vec<Vec<LifeLogEvent>> =
        (0..REPEATS).map(|_| generate(&mut engine, TAIL_EVENTS)).collect();
    drop(api);
    let platform = Arc::try_unwrap(platform).unwrap_or_else(|_| panic!("platform still shared"));
    let restart = fixture::restart(platform, &dir, SPEC.users, &tails, &mut tracer);

    let batches = Digest::of(&timed.batch_ns).expect("at least one batch");
    let e2e = EndToEnd {
        setup_s,
        p50_us: batches.p50_us(),
        unit: batches,
        classes: None,
        rate: ("events_per_s", median(&timed.window_rates)),
        checkpoint_s: restart.checkpoint_s(),
        recover_s: restart.recover_s(),
    };

    let mut failures = timed.failures;
    failures.extend(restart.failures.iter().cloned());
    let mut attempted = timed.batches + restart.checks;
    let mut report = vec![
        format!("unit operation: durable ingest_batch of {BATCH} events, closed loop, 1 caller"),
        format!(
            "batches: {} ({} events in {:.2}s)",
            batches.describe(),
            timed.events,
            timed.wall_s
        ),
        format!(
            "window events/s: {:?}",
            timed.window_rates.iter().map(|r| r.round()).collect::<Vec<_>>()
        ),
        format!("host: {}", host.describe()),
    ];
    report.extend(restart.describe());
    let layers = traced.map(|phase| {
        attempted += phase.batches;
        failures.extend(phase.failures);
        let traced_p50 = Digest::of(&phase.batch_ns).expect("traced batches").p50_us();
        report.push(format!("traced batches: {} events in {:.2}s", phase.events, phase.wall_s));
        LayerInputs {
            tracer: &tracer,
            wire,
            counters,
            events_ingested: phase.events,
            restart: &restart,
            users: SPEC.users,
            cpu_us: phase.cpu_us,
            ops: phase.batches,
            server: Default::default(),
            overhead_pct: (traced_p50 / batches.p50_us() - 1.0) * 100.0,
        }
        .metrics()
    });
    Outcome { e2e, layers, attempted, failures, report, tracer }
}
