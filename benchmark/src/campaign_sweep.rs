//! `campaign_sweep`: the Fig 6 targeting path. An in-process closed
//! loop of `rank_top_k` over 10k-user audience windows of a 20k-user
//! population (k = 4%), with a small `ingest_batch` trickle between
//! calls so a few percent of advice rows are stale when scored. No
//! transport: the engine does all the work, on a working set far beyond
//! a core's L2 and about the size of the shared L3. A larger population
//! is DRAM-bound and follows the neighbours' memory traffic (see
//! README.md, 'Why the population of campaign_sweep is 20k').

use crate::fixture::{self, Counters, PlatformSpec};
use crate::layers::{self, WireBytes};
use crate::measure::{median, nanos, Digest, HostWindow, WINDOW_SAMPLES};
use crate::trace::Tracer;
use crate::{EndToEnd, LayerInputs, Outcome, RunConfig};
use spa_core::{ApiRequest, ApiResponse, ShardedSpa, SpaApi};
use spa_store::fault::SplitMix64;
use spa_types::{LifeLogEvent, UserId};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPEC: PlatformSpec = PlatformSpec {
    shards: 3,
    users: 20_000,
    answers_per_user: 2,
    train_users: 2_000,
    outcomes: 100,
};
/// Users per audience window.
const AUDIENCE: usize = 10_000;
/// Contacts picked per window: 4% of the audience.
const K: usize = AUDIENCE * 4 / 100;
/// Events ingested between two `rank_top_k` calls.
const TRICKLE: usize = 400;
/// Every `CHECK_EVERY`-th call is checked against `rank(..)[..k]`.
const CHECK_EVERY: u64 = 16;
/// Length of one timed window.
const WINDOW: Duration = Duration::from_millis(1000);
/// Trickle batches generated ahead of each timed window.
const WINDOW_CALLS: usize = 400;
/// Platform set-ups per run (`setup_s` is their median), and
/// checkpoints and recoveries in the restart phase (the fastest is
/// reported).
const SETUPS: usize = 15;
const REPEATS: usize = 5;
/// `rank_top_k` calls a traced run makes through the API facade and the
/// wire codec after its traced phase.
const PROBE_CALLS: u64 = 64;
/// Events in each post-checkpoint tail of the restart phase.
const TAIL_EVENTS: usize = 2_000;

struct Inputs {
    rng: SplitMix64,
    clock: u64,
}

impl Inputs {
    /// A uniformly spread trickle: answers (which move a user's model
    /// and so stale its cached advice row) and transactions.
    fn trickle(&mut self, count: usize) -> Vec<LifeLogEvent> {
        (0..count)
            .map(|i| {
                let user = UserId::new(self.rng.gen_range(u64::from(SPEC.users)) as u32);
                self.clock += 1;
                if i % 2 == 0 {
                    fixture::answer(&mut self.rng, user, self.clock)
                } else {
                    fixture::transaction(&mut self.rng, user, self.clock)
                }
            })
            .collect()
    }
}

struct Timed {
    rank_ns: Vec<u64>,
    trickle_ns: Vec<u64>,
    /// Users scored per second of `rank_top_k` time, per window.
    window_scoring: Vec<f64>,
    calls: u64,
    events: u64,
    wall_s: f64,
    cpu_us: u64,
    checks: u64,
    failures: Vec<String>,
}

/// The closed loop. With tracing on, each call and trickle is also
/// recorded as a span; the calls made are the same either way.
fn timed_phase(
    platform: &ShardedSpa,
    windows: &[Vec<UserId>],
    inputs: &mut Inputs,
    seconds: f64,
    tracer: &mut Tracer,
    next_id: &mut u64,
) -> Timed {
    let mut timed = Timed {
        rank_ns: Vec::new(),
        trickle_ns: Vec::new(),
        window_scoring: Vec::new(),
        calls: 0,
        events: 0,
        wall_s: 0.0,
        cpu_us: 0,
        checks: 0,
        failures: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    // at least one full p99 window of calls, however slow the host
    while spent < budget || timed.calls < WINDOW_SAMPLES as u64 {
        let trickles: Vec<Vec<LifeLogEvent>> =
            (0..WINDOW_CALLS).map(|_| inputs.trickle(TRICKLE)).collect();
        let window = WINDOW.min(budget.saturating_sub(spent)).max(WINDOW / 10);
        let host = HostWindow::start();
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        let mut rank_time = Duration::ZERO;
        let mut users = 0u64;
        for trickle in &trickles {
            if start.elapsed() - paused >= window {
                break;
            }
            let id = *next_id;
            *next_id += 1;
            let audience = &windows[(id as usize) % windows.len()];
            let call = Instant::now();
            let op = tracer.open("op.rank_top_k", call, id);
            let top = tracer
                .time("shard.rank_top_k", op, id, || platform.rank_top_k(audience, K))
                .map_err(|e| e.to_string());
            let took = call.elapsed();
            tracer.close(op);
            timed.rank_ns.push(nanos(took));
            rank_time += took;
            users += audience.len() as u64;
            timed.calls += 1;
            if id.is_multiple_of(CHECK_EVERY) {
                let check = Instant::now();
                timed.checks += 1;
                let expected = platform.rank(audience).map(|mut all| {
                    all.truncate(K);
                    all
                });
                let same = match (&top, &expected) {
                    (Ok(a), Ok(b)) => {
                        a.len() == b.len()
                            && a.iter().zip(b).all(|((ua, sa), (ub, sb))| {
                                ua == ub && sa.to_bits() == sb.to_bits()
                            })
                    }
                    _ => false,
                };
                if !same {
                    timed
                        .failures
                        .push(format!("call {id}: rank_top_k differs from rank(..)[..{K}]"));
                }
                paused += check.elapsed();
            } else if let Err(error) = &top {
                timed.failures.push(format!("call {id} failed: {error}"));
            }
            let call = Instant::now();
            let applied =
                tracer.time("shard.ingest_batch", None, id, || platform.ingest_batch(trickle));
            timed.trickle_ns.push(nanos(call.elapsed()));
            timed.events += trickle.len() as u64;
            if applied.as_ref().ok() != Some(&trickle.len()) {
                timed.failures.push(format!(
                    "trickle after call {id}: {applied:?} of {} applied",
                    trickle.len()
                ));
            }
        }
        let elapsed = start.elapsed() - paused;
        timed.cpu_us += host.finish().process_cpu_us;
        spent += elapsed;
        timed.window_scoring.push(users as f64 / rank_time.as_secs_f64());
    }
    timed.wall_s = spent.as_secs_f64();
    timed
}

/// Runs the workload with the engine's fan-out pinned to one thread, so
/// no call waits for a second vCPU to be scheduled (see README.md,
/// 'Why campaign_sweep runs on one engine thread').
pub fn run(cfg: &RunConfig) -> Outcome {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool")
        .install(|| run_on_one_thread(cfg))
}

fn run_on_one_thread(cfg: &RunConfig) -> Outcome {
    let dir = cfg.dir.join("platform");
    let population = fixture::population_events(&SPEC, cfg.seed);
    let mut tracer = Tracer::new(cfg.trace, Instant::now());
    let (platform, setup_s) = fixture::repeat_set_up(SETUPS, &dir, || {
        fixture::bring_up(&SPEC, &dir, &population, &mut tracer)
    });
    let platform = Arc::new(platform);
    let api = SpaApi::new(platform.clone());

    // audience windows: a seeded permutation of the population, cut
    // into consecutive windows
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5EE9_A11D);
    let mut everyone: Vec<UserId> = (0..SPEC.users).map(UserId::new).collect();
    for i in (1..everyone.len()).rev() {
        everyone.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
    let windows: Vec<Vec<UserId>> = everyone.chunks(AUDIENCE).map(<[UserId]>::to_vec).collect();
    let mut inputs = Inputs { rng, clock: 1 << 32 };
    let mut wire = WireBytes::default();
    let mut next_id = 1u64;

    tracer.set_enabled(false);
    let host = HostWindow::start();
    let timed =
        timed_phase(&platform, &windows, &mut inputs, cfg.seconds, &mut tracer, &mut next_id);
    let host = host.finish();
    tracer.set_enabled(cfg.trace);

    // the traced phase repeats the timed loop with spans on; its gap to
    // the untraced phase is the tracing overhead. The API facade and the
    // codec are timed afterwards on calls of the same kind.
    let mut traced = None;
    let mut counters = Counters::default();
    if cfg.trace {
        let before = Counters::read(&platform);
        let mut phase =
            timed_phase(&platform, &windows, &mut inputs, cfg.seconds, &mut tracer, &mut next_id);
        counters = Counters::read(&platform).since(&before);
        for _ in 0..PROBE_CALLS {
            let id = next_id;
            next_id += 1;
            let request = ApiRequest::RankTopK {
                users: windows[(id as usize) % windows.len()].clone(),
                k: K as u32,
            };
            let op = tracer.open("probe.rank_top_k", Instant::now(), id);
            let probed = layers::probe(&mut tracer, op, &api, id, &request, &mut wire);
            tracer.close(op);
            phase.checks += 1;
            if !probed.codec_ok
                || !matches!(probed.response, ApiResponse::Scores { ref entries } if entries.len() == K)
            {
                phase.failures.push(format!("API call {id} answered {:?}", probed.response));
            }
        }
        traced = Some(phase);
    }

    let tails: Vec<Vec<LifeLogEvent>> = (0..REPEATS).map(|_| inputs.trickle(TAIL_EVENTS)).collect();
    drop(api);
    let platform = Arc::try_unwrap(platform).unwrap_or_else(|_| panic!("platform still shared"));
    let restart = fixture::restart(platform, &dir, SPEC.users, &tails, &mut tracer);

    let ranks = Digest::of(&timed.rank_ns).expect("at least one rank_top_k call");
    let trickles = Digest::of(&timed.trickle_ns).expect("at least one trickle");
    let e2e = EndToEnd {
        setup_s,
        p50_us: ranks.p50_us(),
        unit: ranks,
        classes: None,
        rate: ("users_scored_per_s", median(&timed.window_scoring)),
        checkpoint_s: restart.checkpoint_s(),
        recover_s: restart.recover_s(),
    };

    let mut failures = timed.failures;
    failures.extend(restart.failures.iter().cloned());
    let mut attempted = timed.calls + timed.checks + restart.checks;
    let mut report = vec![
        format!("unit operation: rank_top_k({AUDIENCE}, k={K}), closed loop, 1 caller, {TRICKLE}-event trickle between calls"),
        format!("rank_top_k: {}", ranks.describe()),
        format!("trickle ingest_batch: {}", trickles.describe()),
        format!(
            "window users scored/s: {:?}",
            timed.window_scoring.iter().map(|r| r.round()).collect::<Vec<_>>()
        ),
        format!("host: {}", host.describe()),
    ];
    report.extend(restart.describe());
    let layers = traced.map(|phase| {
        attempted += phase.calls + phase.checks;
        failures.extend(phase.failures);
        let traced_p50 = Digest::of(&phase.rank_ns).expect("traced calls").p50_us();
        report.push(format!("traced calls: {} in {:.2}s", phase.calls, phase.wall_s));
        LayerInputs {
            tracer: &tracer,
            wire,
            counters,
            events_ingested: phase.events,
            restart: &restart,
            users: SPEC.users,
            cpu_us: phase.cpu_us,
            ops: phase.calls,
            server: Default::default(),
            overhead_pct: (traced_p50 / ranks.p50_us() - 1.0) * 100.0,
        }
        .metrics()
    });
    Outcome { e2e, layers, attempted, failures, report, tracer }
}
