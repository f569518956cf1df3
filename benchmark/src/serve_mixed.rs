//! `serve_mixed`: online callers over loopback TCP. An open loop with
//! Poisson arrivals at a fixed rate sends 70% `score(16)`, 10%
//! `rank_top_k(64, k=8)`, 15% `ingest` and 5% `observe_outcome` to
//! `spa-server` over a 3-shard WAL platform of ~2k Zipf-skewed users.
//! Latency runs from each request's *scheduled* arrival, so a stall
//! charges every request queued behind it. A closed loop then measures
//! the capacity of the two connections, and a fixed ladder of open-loop
//! rates reports which meet the p99 limit.

use crate::fixture::{self, Counters, PlatformSpec};
use crate::layers::{self, WireBytes};
use crate::measure::{median, nanos, process_cpu_us, Digest, HostWindow};
use crate::trace::Tracer;
use crate::{EndToEnd, LayerInputs, Outcome, RunConfig};
use bytes::BytesMut;
use spa_core::{ApiRequest, ApiResponse, ShardedSpa, SpaApi};
use spa_server::{serve_with, wire, ClientConfig, ServeOptions, ServerHandle, SpaClient};
use spa_store::fault::SplitMix64;
use spa_types::UserId;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPEC: PlatformSpec = PlatformSpec {
    shards: 3,
    users: 2_000,
    answers_per_user: 3,
    train_users: 2_000,
    outcomes: 100,
};
/// Target arrival rate of the main open loop.
const RATE: f64 = 3200.0;
/// Generator threads, each owning one connection.
const CONNECTIONS: usize = 2;
/// Users per `score` request; audience and `k` of `rank_top_k`.
const SCORE_USERS: usize = 16;
const RANK_USERS: usize = 64;
const RANK_K: u32 = 8;
/// Zipf exponent of user popularity.
const ZIPF: f64 = 0.9;
/// Shares of `--seconds` spent in the main open loop and the closed
/// capacity loop; the ladder adds a fixed number of requests per rung.
const MAIN_SHARE: f64 = 0.7;
const CAPACITY_SHARE: f64 = 0.15;
/// Window over which closed-loop throughput is taken; the reported
/// capacity is the median window.
const CAPACITY_WINDOW: Duration = Duration::from_millis(100);
/// Open-loop rates tried, lowest first, and the p99 each must meet
/// without a growing backlog.
const LADDER: [f64; 5] = [800.0, 1_600.0, 3_200.0, 6_400.0, 12_800.0];
const LADDER_REQUESTS: usize = 1_200;
const P99_LIMIT: Duration = Duration::from_millis(2);
/// Requests replayed after the run, over the wire and in-process, and
/// compared byte for byte.
const SAMPLE: usize = 200;
/// Platform set-ups per run (`setup_s` is their median), and
/// checkpoints and recoveries in the restart phase (the fastest is
/// reported).
const SETUPS: usize = 31;
const REPEATS: usize = 15;
/// Events in each post-checkpoint tail of the restart phase.
const TAIL_EVENTS: usize = 500;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Score,
    RankTopK,
    Ingest,
    ObserveOutcome,
}

impl Class {
    fn is_read(self) -> bool {
        matches!(self, Class::Score | Class::RankTopK)
    }
}

/// Seeded request generator: Zipf-popular users over a seeded
/// permutation, so which users are hot changes with the seed.
struct Generator {
    rng: SplitMix64,
    hot: Vec<u32>,
    cdf: Vec<f64>,
    clock: u64,
}

impl Generator {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5E12_7E00);
        let mut hot: Vec<u32> = (0..SPEC.users).collect();
        for i in (1..hot.len()).rev() {
            hot.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        let mut acc = 0.0;
        let cdf = (0..hot.len())
            .map(|rank| {
                acc += 1.0 / ((rank + 1) as f64).powf(ZIPF);
                acc
            })
            .collect();
        Self { rng, hot, cdf, clock: 1 << 32 }
    }

    fn unit(&mut self) -> f64 {
        (self.rng.gen_range(1 << 53) as f64 + 0.5) / (1u64 << 53) as f64
    }

    fn user(&mut self) -> UserId {
        let total = *self.cdf.last().expect("users exist");
        let needle = self.unit() * total;
        let rank = self.cdf.partition_point(|&acc| acc < needle).min(self.hot.len() - 1);
        UserId::new(self.hot[rank])
    }

    fn request(&mut self) -> (Class, ApiRequest) {
        self.clock += 1;
        match self.rng.gen_range(100) {
            0..=69 => (
                Class::Score,
                ApiRequest::Score { users: (0..SCORE_USERS).map(|_| self.user()).collect() },
            ),
            70..=79 => (
                Class::RankTopK,
                ApiRequest::RankTopK {
                    users: (0..RANK_USERS).map(|_| self.user()).collect(),
                    k: RANK_K,
                },
            ),
            80..=94 => {
                let user = self.user();
                let event = if self.rng.gen_range(2) == 0 {
                    fixture::answer(&mut self.rng, user, self.clock)
                } else {
                    fixture::transaction(&mut self.rng, user, self.clock)
                };
                (Class::Ingest, ApiRequest::Ingest { event })
            }
            _ => (
                Class::ObserveOutcome,
                ApiRequest::ObserveOutcome {
                    user: self.user(),
                    responded: self.rng.gen_range(2) == 0,
                },
            ),
        }
    }

    /// `count` Poisson arrival offsets (ns) at `rate` per second.
    fn arrivals(&mut self, rate: f64, count: usize) -> Vec<u64> {
        let mean_gap_ns = 1e9 / rate;
        let mut clock = 0.0f64;
        (0..count)
            .map(|_| {
                clock += -mean_gap_ns * (1.0 - self.unit()).ln();
                clock as u64
            })
            .collect()
    }

    fn load(&mut self, rate: f64, count: usize) -> Load {
        let arrivals = self.arrivals(rate, count);
        Load { requests: (0..count).map(|_| self.request()).collect(), arrivals }
    }
}

/// One connection's share of a phase: requests and, for an open loop,
/// their scheduled offsets.
struct Load {
    requests: Vec<(Class, ApiRequest)>,
    arrivals: Vec<u64>,
}

/// The shape a correct response to `request` has.
fn well_formed(request: &ApiRequest, response: &ApiResponse) -> bool {
    match (request, response) {
        (ApiRequest::Score { users }, ApiResponse::Scores { entries }) => {
            entries.len() == users.len() && entries.iter().zip(users).all(|((u, _), w)| u == w)
        }
        (ApiRequest::RankTopK { users, k }, ApiResponse::Scores { entries }) => {
            entries.len() == (*k as usize).min(users.len())
                && entries.windows(2).all(|w| w[0].1 >= w[1].1)
        }
        (ApiRequest::Ingest { .. }, ApiResponse::Ingested { applied }) => *applied == 1,
        (ApiRequest::ObserveOutcome { .. }, ApiResponse::OutcomeRecorded) => true,
        _ => false,
    }
}

/// One answered request.
struct Done {
    class: Class,
    /// From its scheduled arrival (or, in a closed loop, its send) to
    /// its response.
    latency_ns: u64,
    /// Completion, as an offset from the phase's start.
    end_ns: u64,
    /// How late the generator sent it.
    late_ns: u64,
}

/// A request answered in a traced phase, kept to be replayed through
/// the codec and in-process dispatch once the phase is over.
struct Recorded {
    id: u64,
    request: ApiRequest,
    round_trip: Duration,
}

#[derive(Default)]
struct Driven {
    /// Answered requests, in completion order once merged.
    done: Vec<Done>,
    /// Requests answered with tracing on.
    recorded: Vec<Recorded>,
    failures: Vec<String>,
}

/// What the connections of one phase share: the server, the client
/// seed, the phase's start, and (for a closed loop) its end.
#[derive(Clone, Copy)]
struct Clock {
    addr: SocketAddr,
    seed: u64,
    t0: Instant,
    until: Option<Instant>,
}

/// Lets this thread's sleeps end close to their deadline instead of
/// up to the default 50 us slack later, so the generator need not spin.
fn tighten_timer_slack() {
    let _ = std::fs::write("/proc/thread-self/timerslack_ns", "1000");
}

/// Sleeps until `at`, if it is still ahead.
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Drives one connection. With arrivals, an open loop: each request is
/// sent at its scheduled offset from `t0` (sleeping, never spinning)
/// and timed from that offset. Without, a closed loop over the requests
/// from `t0` until `until` passes. With tracing on, each request gets an
/// `op.request` span from its schedule and a `client.call` span, and is
/// kept with its round trip; nothing else is added to the loop.
fn drive(clock: &Clock, connection: usize, load: &Load, tracer: &mut Tracer) -> Driven {
    tighten_timer_slack();
    let Clock { addr, seed, t0, until } = *clock;
    let connection = connection as u64 + 1;
    let config = ClientConfig {
        seed: Some(seed ^ connection.wrapping_mul(0x1F3D)),
        ..ClientConfig::default()
    };
    let mut client = SpaClient::connect_with(addr, config).expect("connect to the server");
    let mut out = Driven::default();
    let open = until.is_none();
    if !open {
        sleep_until(t0);
    }
    for (i, (class, request)) in load.requests.iter().enumerate() {
        let scheduled = if open {
            let at = t0 + Duration::from_nanos(load.arrivals[i]);
            sleep_until(at);
            at
        } else {
            Instant::now()
        };
        if until.is_some_and(|end| scheduled >= end) {
            break;
        }
        let sent = Instant::now();
        let response = client.call(request);
        let end = Instant::now();
        out.done.push(Done {
            class: *class,
            latency_ns: nanos(end - scheduled),
            end_ns: nanos(end.saturating_duration_since(t0)),
            late_ns: nanos(sent.saturating_duration_since(scheduled)),
        });
        // ids for the twin's dedup window, distinct across connections
        let id = connection + CONNECTIONS as u64 * i as u64;
        match &response {
            Ok(r) if well_formed(request, r) => {}
            Ok(r) => out.failures.push(format!("{class:?} request answered {r:?}")),
            Err(e) => out.failures.push(format!("{class:?} request failed: {e}")),
        }
        if tracer.enabled() && response.is_ok() {
            let op = tracer.open("op.request", scheduled, id);
            tracer.record("client.call", op, sent, end, id);
            tracer.close(op);
            out.recorded.push(Recorded { id, request: request.clone(), round_trip: end - sent });
        }
    }
    out
}

/// Replays the requests of a traced phase through the wire codec and
/// in-process dispatch on `twin`, a platform set up like the served
/// one, then through the engine call they map to. Returns what each
/// round trip spent beyond codec and dispatch: the transport's share.
fn replay(
    recorded: &[Recorded],
    twin: &SpaApi,
    tracer: &mut Tracer,
    wire: &mut WireBytes,
    failures: &mut Vec<String>,
) -> Vec<u64> {
    let platform = twin.platform();
    let mut residual_ns = Vec::with_capacity(recorded.len());
    for r in recorded {
        let root = tracer.open("replay.request", Instant::now(), r.id);
        let probed = layers::probe(tracer, root, twin, r.id, &r.request, wire);
        if !probed.codec_ok || !well_formed(&r.request, &probed.response) {
            failures.push(format!("request {} replayed in-process: {:?}", r.id, probed.response));
        }
        residual_ns.push(nanos(r.round_trip.saturating_sub(probed.codec + probed.dispatch)));
        match &r.request {
            ApiRequest::Score { users } => {
                let _ =
                    tracer.time("shard.score_users", root, r.id, || platform.score_users(users));
            }
            ApiRequest::RankTopK { users, k } => {
                let _ = tracer.time("shard.rank_top_k", root, r.id, || {
                    platform.rank_top_k(users, *k as usize)
                });
            }
            _ => {}
        }
        tracer.close(root);
    }
    residual_ns
}

/// Runs one phase on all connections at once and merges the results.
fn phase(
    addr: SocketAddr,
    seed: u64,
    loads: &[Load],
    until: Option<Duration>,
    tracer: &mut Tracer,
) -> Driven {
    let t0 = Instant::now() + Duration::from_millis(20);
    let clock = Clock { addr, seed, t0, until: until.map(|d| t0 + d) };
    let clock = &clock;
    let results: Vec<(Driven, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = loads
            .iter()
            .enumerate()
            .map(|(c, load)| {
                let mut local = tracer.fork();
                scope.spawn(move || (drive(clock, c, load, &mut local), local))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let mut merged = Driven::default();
    for (driven, local) in results {
        tracer.absorb(local);
        merged.done.extend(driven.done);
        merged.recorded.extend(driven.recorded);
        merged.failures.extend(driven.failures);
    }
    merged.done.sort_by_key(|d| d.end_ns);
    merged
}

fn latencies(driven: &Driven, keep: impl Fn(Class) -> bool) -> Vec<u64> {
    driven.done.iter().filter(|d| keep(d.class)).map(|d| d.latency_ns).collect()
}

/// Splits `total` requests of an open loop at `rate` over the
/// connections, each an independent Poisson stream.
fn open_loads(generator: &mut Generator, rate: f64, total: usize) -> Vec<Load> {
    (0..CONNECTIONS)
        .map(|_| generator.load(rate / CONNECTIONS as f64, total / CONNECTIONS))
        .collect()
}

/// Brings the platform up and starts serving it.
fn serve(
    cfg: &RunConfig,
    population: &[spa_types::LifeLogEvent],
    tracer: &mut Tracer,
) -> (Arc<ShardedSpa>, ServerHandle) {
    let platform =
        Arc::new(fixture::bring_up(&SPEC, &cfg.dir.join("platform"), population, tracer));
    let api = Arc::new(SpaApi::new(platform.clone()));
    let handle = serve_with(api, "127.0.0.1:0", ServeOptions::default()).expect("start the server");
    (platform, handle)
}

/// Stops the server and waits for its connection threads to let go of
/// the platform.
fn stop(platform: Arc<ShardedSpa>, handle: ServerHandle) -> ShardedSpa {
    handle.shutdown();
    let mut platform = platform;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Arc::try_unwrap(platform) {
            Ok(owned) => return owned,
            Err(shared) if Instant::now() < deadline => {
                platform = shared;
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => panic!("server threads still hold the platform"),
        }
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let population = fixture::population_events(&SPEC, cfg.seed);
    let mut tracer = Tracer::new(cfg.trace, Instant::now());
    let ((platform, handle), setup_s) =
        fixture::repeat_set_up(SETUPS, &cfg.dir.join("platform"), || {
            serve(cfg, &population, &mut tracer)
        });
    let addr = handle.addr();

    // every input of every phase is generated before any clock starts
    let mut generator = Generator::new(cfg.seed);
    let main_total = (RATE * cfg.seconds * MAIN_SHARE) as usize;
    let main = open_loads(&mut generator, RATE, main_total);
    let capacity_time = Duration::from_secs_f64(cfg.seconds * CAPACITY_SHARE);
    // a closed loop ignores the arrival offsets; 40k requests per second
    // per connection is more than two connections can complete
    let capacity: Vec<Load> = (0..CONNECTIONS)
        .map(|_| generator.load(1.0, (40_000.0 * capacity_time.as_secs_f64()) as usize))
        .collect();
    let ladder: Vec<Vec<Load>> =
        LADDER.iter().map(|&rate| open_loads(&mut generator, rate, LADDER_REQUESTS)).collect();
    let traced_main = cfg.trace.then(|| open_loads(&mut generator, RATE, main_total));
    let sample: Vec<(Class, ApiRequest)> = (0..SAMPLE).map(|_| generator.request()).collect();

    tracer.set_enabled(false);
    let host = HostWindow::start();
    let main_run = phase(addr, cfg.seed, &main, None, &mut tracer);
    let host = host.finish();
    let capacity_run = phase(addr, cfg.seed ^ 0xCA9A, &capacity, Some(capacity_time), &mut tracer);
    let mut ladder_report = Vec::new();
    let mut ladder_capacity = None;
    let mut ladder_requests = 0;
    let mut ladder_failures = Vec::new();
    for (&rate, loads) in LADDER.iter().zip(&ladder) {
        let run = phase(addr, cfg.seed ^ rate as u64, loads, None, &mut tracer);
        ladder_requests += run.done.len();
        let digest = Digest::of(&latencies(&run, |_| true)).expect("ladder rung ran");
        // backlog: the last tenth of the rung waited longer than the limit
        let last = &run.done[run.done.len() * 9 / 10..];
        let backlog = median(&last.iter().map(|d| d.latency_ns as f64).collect::<Vec<_>>())
            > nanos(P99_LIMIT) as f64;
        let pass =
            run.failures.is_empty() && digest.p99_us() <= P99_LIMIT.as_secs_f64() * 1e6 && !backlog;
        ladder_failures.extend(run.failures);
        ladder_report.push(format!(
            "{rate}/s: {} backlog={backlog} {}",
            digest.describe(),
            if pass { "pass" } else { "FAIL" }
        ));
        if !pass {
            break;
        }
        ladder_capacity = Some(rate);
    }
    tracer.set_enabled(cfg.trace);

    // traced repeat of the main loop with spans on; afterwards every
    // request it sent runs through the codec and in-process dispatch on a
    // twin platform set up identically
    let mut traced = None;
    if let Some(loads) = &traced_main {
        let before = Counters::read(&platform);
        let cpu = process_cpu_us();
        let mut run = phase(addr, cfg.seed ^ 0x7ACE, loads, None, &mut tracer);
        let cpu_us = process_cpu_us() - cpu;
        let counters = Counters::read(&platform).since(&before);
        let twin =
            Arc::new(fixture::bring_up(&SPEC, &cfg.dir.join("twin"), &population, &mut tracer));
        let mut wire = WireBytes::default();
        let residual_ns =
            replay(&run.recorded, &SpaApi::new(twin), &mut tracer, &mut wire, &mut run.failures);
        traced = Some((run, counters, cpu_us, wire, residual_ns));
    }

    // after the run: the sample over the wire and in-process, byte for byte
    let mut sample_failures = Vec::new();
    {
        let api = handle.api().clone();
        let mut client = SpaClient::connect(addr).expect("connect for the sample check");
        for (class, request) in &sample {
            let over_wire = client.call(request);
            let in_process = api.dispatch(request);
            let bytes = |response: &ApiResponse| {
                let mut out = BytesMut::new();
                wire::encode_response(response, &mut out);
                out
            };
            match over_wire {
                Ok(r) if bytes(&r) == bytes(&in_process) && well_formed(request, &r) => {}
                other => sample_failures
                    .push(format!("{class:?}: wire {other:?} vs in-process {in_process:?}")),
            }
        }
    }
    let server_counts = handle.stats().counts();
    let platform = stop(platform, handle);
    let mut tail_generator = Generator::new(cfg.seed ^ 0x7A11);
    let tails: Vec<Vec<_>> = (0..REPEATS)
        .map(|_| {
            (0..TAIL_EVENTS)
                .map(|i| {
                    let user = tail_generator.user();
                    fixture::answer(&mut tail_generator.rng, user, (1 << 40) + i as u64)
                })
                .collect()
        })
        .collect();
    let restart =
        fixture::restart(platform, &cfg.dir.join("platform"), SPEC.users, &tails, &mut tracer);

    let all = Digest::of(&latencies(&main_run, |_| true)).expect("main loop ran");
    let reads = Digest::of(&latencies(&main_run, Class::is_read)).expect("reads ran");
    let writes = Digest::of(&latencies(&main_run, |c| !c.is_read())).expect("writes ran");
    let late = Digest::of(&main_run.done.iter().map(|d| d.late_ns).collect::<Vec<_>>())
        .expect("main loop ran");
    // the bounded median comes from the closed loop: timed from the
    // schedule, the open loop's median also carries how late a sleeping
    // generator wakes, which doubled between runs when the host stole
    // 10-20% of its CPU time (see README.md)
    let closed = Digest::of(&latencies(&capacity_run, |_| true)).expect("closed loop ran");

    // closed-loop capacity: completions per window, median window
    let capacity_s = capacity_time.as_secs_f64();
    let windows = (capacity_s / CAPACITY_WINDOW.as_secs_f64()).floor().max(1.0) as usize;
    let mut per_window = vec![0u64; windows];
    let window_ns = nanos(CAPACITY_WINDOW);
    for done in &capacity_run.done {
        if let Some(slot) = per_window.get_mut((done.end_ns / window_ns) as usize) {
            *slot += 1;
        }
    }
    let capacity_rps = median(
        &per_window.iter().map(|&n| n as f64 / CAPACITY_WINDOW.as_secs_f64()).collect::<Vec<_>>(),
    );
    let capacity_wall = capacity_run.done.last().map_or(1, |d| d.end_ns) as f64 / 1e9;
    let e2e = EndToEnd {
        setup_s,
        p50_us: closed.p50_us(),
        unit: all,
        classes: Some((reads, writes)),
        rate: ("capacity_rps", capacity_rps),
        checkpoint_s: restart.checkpoint_s(),
        recover_s: restart.recover_s(),
    };

    // ladder rungs past capacity may miss the limit; only errors fail
    let mut failures = main_run.failures;
    failures.extend(capacity_run.failures);
    failures.extend(ladder_failures);
    failures.extend(sample_failures);
    failures.extend(restart.failures.iter().cloned());
    let mut attempted = (all.count + capacity_run.done.len() + ladder_requests + sample.len())
        as u64
        + restart.checks;
    let mut report = vec![
        format!(
            "unit operation: one request, open loop, Poisson {RATE}/s over {CONNECTIONS} connections, timed from its scheduled arrival"
        ),
        format!("all requests (open loop, from schedule): {}", all.describe()),
        format!("reads (score, rank_top_k): {}", reads.describe()),
        format!("writes (ingest, observe_outcome): {}", writes.describe()),
        format!("gen.late_us: {}", late.describe()),
        format!(
            "capacity (closed loop, {CONNECTIONS} connections): {} requests in {:.2}s; per-{}ms window req/s {:?}",
            capacity_run.done.len(),
            capacity_wall,
            CAPACITY_WINDOW.as_millis(),
            per_window.iter().map(|&n| n as f64 / CAPACITY_WINDOW.as_secs_f64()).collect::<Vec<_>>()
        ),
        format!(
            "ladder (p99 limit {}us): highest passing rate {}",
            P99_LIMIT.as_micros(),
            ladder_capacity.map_or("none".to_string(), |rate| format!("{rate}/s"))
        ),
    ];
    report.push(format!("closed-loop requests (p50_us): {}", closed.describe()));
    report.extend(ladder_report.into_iter().map(|line| format!("  rung {line}")));
    report.push(format!("sample: {} requests compared over the wire and in-process", sample.len()));
    report.extend(restart.describe());
    report.push(format!("host over the main loop: {}", host.describe()));
    let layers = traced.map(|(run, counters, cpu_us, wire, residual_ns)| {
        attempted += run.done.len() as u64;
        failures.extend(run.failures.iter().cloned());
        let traced_all = Digest::of(&latencies(&run, |_| true)).expect("traced loop ran");
        let residual = Digest::of(&residual_ns);
        let traced_late = Digest::of(&run.done.iter().map(|d| d.late_ns).collect::<Vec<_>>())
            .expect("traced loop ran");
        report.push(format!("traced requests: {}", traced_all.describe()));
        if let Some(residual) = residual {
            report.push(format!(
                "transport.residual_us (round trip - codec - in-process dispatch): {}",
                residual.describe()
            ));
        }
        report.push(format!("traced gen.late_us: {}", traced_late.describe()));
        let ingested = run.done.iter().filter(|d| d.class == Class::Ingest).count() as u64;
        LayerInputs {
            tracer: &tracer,
            wire,
            counters,
            events_ingested: ingested,
            restart: &restart,
            users: SPEC.users,
            cpu_us,
            ops: run.done.len() as u64,
            server: server_counts,
            overhead_pct: (traced_all.p50_us() / all.p50_us() - 1.0) * 100.0,
        }
        .metrics()
    });
    Outcome { e2e, layers, attempted, failures, report, tracer }
}
