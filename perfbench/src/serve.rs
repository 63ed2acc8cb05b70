//! The `serve-churn` workload: an `em_net::Server` on an in-process
//! thread hosting two durable sessions, driven over a Unix socket by a
//! one-thread open-loop load generator with two connections.
//!
//! Each rung of the rate ladder starts a fresh daemon incarnation whose
//! sessions are admitted on the same initial data: `grow-0` receives
//! append-only frames, `churn-1` frames that add and retract (sized so
//! its live population stays near the initial one). Frames go out on
//! the ingest connection at the rung's fixed rate; `Query` reads go out
//! at a fixed rate on the second connection, which also polls `Status`
//! to see when each frame became visible (the session's entity-id space
//! reaching the size the frame's additions imply). Every latency is
//! timed from the event's due time. Every rung ends with `Kill`, and
//! every session must pass the standalone replay of its op log; the
//! first reference rung also recovers into a new incarnation, whose
//! digests must equal the pre-kill ones. The reference rung's time is
//! split over six seed-drawn inputs, so its figures average over them.

use crate::batch::{blocking_config, generate_input};
use crate::report::{peak_rss_mb, reset_peak_rss, threads_cpu_seconds, Report};
use crate::stats::{lag_ms, latency_ms, mean, median, p95, Schedule, Summary};
use em::{ChurnOptions, Dataset, DatasetDelta, MatchSession, MatcherChoice, Pipeline, Scheme};
use em_core::{EntityId, PairSet};
use em_datagen::{GeneratedDataset, GroundTruth};
use em_net::{Client, Endpoint, NetError, Response, Server, ServerAddr, ShutdownKind};
use em_serve::{channel_source, ChannelSource, Daemon, Op, ServeConfig, ServeError, StreamFrame};
use em_store::Wal;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Datagen profile and scale of the sessions' data.
const PROFILE: &str = "hepth";
const SCALE: f64 = 0.005;
/// Entities each frame adds to its session.
const ENTITIES_PER_FRAME: u32 = 1;
/// The rate ladder: delta frames per second over both sessions, and
/// the share of `--seconds` the rung spends sending. The top rung is
/// short, so the append-only session does not grow far from its
/// initial size.
pub const RUNGS: [(f64, f64); 3] = [(4.0, 0.1), (16.0, 0.42), (96.0, 0.05)];
/// The rung the latency metrics are reported at.
pub const REFERENCE_RUNG: usize = 1;
/// Inputs (seed-drawn renderings of the world) the reference rung's
/// time is split over, so its figures average over inputs; the other
/// rungs run on input 0.
const REFERENCE_INPUTS: usize = 6;
/// `Query` reads per second, alternating sessions.
const QUERY_RATE: f64 = 10.0;
/// The latency limit `max_rate_dps` holds the tail to: the
/// `ServeConfig` default staleness budget.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;
/// Extra bind + admit + first-`Query` cycles before the ladder, for
/// the set-up median.
const SETUP_SAMPLES: usize = 12;
/// How often pending frames are checked for visibility.
const POLL: Duration = Duration::from_millis(4);
/// How long after its last due time a rung may take to make every
/// frame visible before the stragglers count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

const SESSIONS: [&str; 2] = ["grow-0", "churn-1"];
/// Name prefix of the daemon's per-session worker threads (the ones
/// that run `update` + `run`).
const WORKER_THREADS: &str = "em-serve-";

fn session_pipeline(dataset: Dataset) -> Pipeline {
    Pipeline::new(dataset)
        .blocking(blocking_config())
        .matcher(MatcherChoice::MlnExact)
        .scheme(Scheme::Mmp)
}

/// One hosted session's inputs.
struct Traffic {
    name: &'static str,
    initial: Dataset,
    deltas: Vec<DatasetDelta>,
}

type ServeResult = Result<(Daemon<ChannelSource>, ShutdownKind), ServeError>;

struct Incarnation {
    handle: JoinHandle<ServeResult>,
    addr: ServerAddr,
}

impl Incarnation {
    /// Bind `socket` and admit every session (fresh, or recovered when
    /// `store_root` already holds it) on a server thread.
    fn spawn(socket: &Path, store_root: &Path, traffic: &[Traffic]) -> Result<Self, NetError> {
        let server = Server::bind(&Endpoint::Unix(socket.to_owned()))?;
        let addr = server.addr().clone();
        let config = ServeConfig {
            store_root: Some(store_root.to_owned()),
            ..Default::default()
        };
        let initials: Vec<(&'static str, Dataset)> = traffic
            .iter()
            .map(|t| (t.name, t.initial.clone()))
            .collect();
        let handle = std::thread::Builder::new()
            .name("perfbench-serve".to_owned())
            .spawn(move || -> ServeResult {
                let (tx, source) = channel_source();
                let mut daemon = Daemon::new(source, config);
                for (name, initial) in initials {
                    daemon.admit(name, move || session_pipeline(initial.clone()))?;
                }
                server.serve(daemon, tx)
            })
            .map_err(NetError::Io)?;
        Ok(Self { handle, addr })
    }

    fn join(self) -> Result<(Daemon<ChannelSource>, ShutdownKind), NetError> {
        match self.handle.join() {
            Ok(result) => result.map_err(NetError::Serve),
            Err(_) => Err(NetError::Server("server thread panicked".to_owned())),
        }
    }
}

/// One frame of a rung's schedule.
struct Sent {
    session: usize,
    /// Entity-id-space size of the session once this frame is applied;
    /// `None` for frames that add no entity (not sampled).
    expect_entities: Option<u64>,
    due: Instant,
    /// When a `Status` first reflected the frame.
    visible: Option<Instant>,
}

/// What one rung measured.
#[derive(Default)]
struct Rung {
    /// Index into [`RUNGS`].
    rung: usize,
    rate: f64,
    setup_s: f64,
    recover_s: f64,
    peak_rss_mb: f64,
    visible_ms: Vec<f64>,
    /// CPU seconds the session workers spent per frame.
    worker_cpu_s: f64,
    query_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    ingest_us: Vec<f64>,
    status_ms: Vec<f64>,
    frames_sent: usize,
    sampled: usize,
    backlog_grew: bool,
    query_bytes: usize,
    batches: u64,
    frames_applied: u64,
    shed_events: u64,
    budget_misses: u64,
    degraded_to_cold: u64,
    staleness_ms: Vec<f64>,
    f1_counts: (usize, usize, usize),
    /// Traced only: per-op replay timings and ledgers.
    update_ms: Vec<f64>,
    warm_run_ms: Vec<f64>,
    pairs_reblocked: u64,
    components_invalidated: u64,
    memos_dropped: u64,
    replay_degraded: u64,
    replay_s: f64,
    standalone_replay_s: f64,
    checkpoint_s: f64,
    snapshot_bytes: u64,
    store_recover_s: f64,
}

impl Rung {
    fn frames_per_batch(&self) -> f64 {
        self.frames_applied as f64 / self.batches.max(1) as f64
    }

    /// The tail the latency limit is held to: p95 when the sample
    /// supports it, else the highest supported percentile, else (too
    /// few samples for any) the maximum.
    fn tail_ms(&self) -> Option<f64> {
        let summary = Summary::of(&self.visible_ms)?;
        Some(match summary.tail {
            Some((_, v)) => v,
            None => self.visible_ms.iter().copied().fold(0.0, f64::max),
        })
    }

    fn meets_limit(&self) -> bool {
        !self.backlog_grew && self.tail_ms().is_some_and(|t| t <= LATENCY_LIMIT_MS)
    }
}

/// Whether the backlog (frames sent but not yet visible) grew over the
/// sending window: the mean over its second half exceeds the first
/// half's by more than half again plus two frames.
fn backlog_grew(samples: &[(Instant, usize)], start: Instant, end: Instant) -> bool {
    let mid = start + (end - start) / 2;
    let mean_in = |lo: Instant, hi: Instant| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|&(_, b)| b as f64)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            mean(&v)
        }
    };
    mean_in(mid, end) > 1.5 * mean_in(start, mid) + 2.0
}

/// True matching pairs among `dataset`'s live author references.
fn live_true_pairs(dataset: &Dataset, truth: &GroundTruth) -> usize {
    let mut clusters: BTreeMap<_, usize> = BTreeMap::new();
    for e in dataset.entities.ids() {
        if let Some(author) = truth.author_of(e) {
            *clusters.entry(author).or_default() += 1;
        }
    }
    clusters.values().map(|&k| k * (k - 1) / 2).sum()
}

/// Whether every live entity of `dataset` carries the template's
/// attributes under the same id (so datagen truth applies to it).
fn ids_follow_template(dataset: &Dataset, template: &Dataset) -> bool {
    dataset.entities.ids().all(|e: EntityId| {
        (e.0 as usize) < template.entities.len()
            && dataset.entities.attr(e, "name") == template.entities.attr(e, "name")
    })
}

/// One input: a seed-drawn rendering of the world and the two
/// sessions' traffic over it.
struct Input {
    traffic: [Traffic; 2],
    template: Dataset,
    truth: GroundTruth,
}

impl Input {
    /// `steps` frames per session, each adding the next template slice
    /// of [`ENTITIES_PER_FRAME`] entities; the churn session also
    /// retracts about as many.
    fn new(seed: u64, steps: usize) -> Self {
        let GeneratedDataset {
            dataset: template,
            truth,
            ..
        } = generate_input(PROFILE, SCALE, seed);
        let n = template.entities.len() as u32;
        let initial = n
            .saturating_sub(ENTITIES_PER_FRAME * steps as u32)
            .max(n / 2);
        let slice = f64::from(n - initial) / steps as f64;
        let retract_fraction = (slice / f64::from(initial)).min(0.5);
        let (grow_initial, grow) = DatasetDelta::churn_script_with(
            &template,
            initial,
            steps,
            seed,
            &ChurnOptions::default(),
        );
        let (churn_initial, churn) = DatasetDelta::churn_script_with(
            &template,
            initial,
            steps,
            seed ^ 0x5EED,
            &ChurnOptions {
                retract_fraction,
                ..Default::default()
            },
        );
        Self {
            traffic: [
                Traffic {
                    name: SESSIONS[0],
                    initial: grow_initial,
                    deltas: grow,
                },
                Traffic {
                    name: SESSIONS[1],
                    initial: churn_initial,
                    deltas: churn,
                },
            ],
            template,
            truth,
        }
    }
}

struct Ctx<'a> {
    input: &'a Input,
    /// Where the stores live (absolute); sockets are bound relative to
    /// it, as the working directory, to stay clear of the Unix socket
    /// path limit.
    dir: &'a Path,
    traced: bool,
}

/// One rung of the plan: which rate, on which input, for how long.
struct Planned {
    rung: usize,
    input: usize,
    seconds: f64,
    per_session: usize,
}

pub fn run(seed: u64, seconds: f64, traced: bool, results: &Path, report: &mut Report) {
    let mut plan = Vec::new();
    for (rung, &(rate, share)) in RUNGS.iter().enumerate() {
        let inputs = if rung == REFERENCE_RUNG {
            REFERENCE_INPUTS
        } else {
            1
        };
        let seconds = share * seconds / inputs as f64;
        let per_session = ((rate * seconds) / SESSIONS.len() as f64).ceil().max(1.0) as usize;
        for input in 0..inputs {
            plan.push(Planned {
                rung,
                input,
                seconds,
                per_session,
            });
        }
    }
    let steps = plan.iter().map(|p| p.per_session).max().unwrap_or(1);
    let inputs: Vec<Input> = (0..REFERENCE_INPUTS as u64)
        .map(|i| {
            Input::new(
                seed.wrapping_mul(REFERENCE_INPUTS as u64).wrapping_add(i),
                steps,
            )
        })
        .collect();
    let dir = results.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let home = std::env::current_dir();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::env::set_current_dir(&dir)) {
        eprintln!("cannot use {}: {e}", dir.display());
        report.op(false);
        return;
    }
    let ctx = |input: usize| Ctx {
        input: &inputs[input],
        dir: &dir,
        traced,
    };

    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); REFERENCE_INPUTS];
    for i in 0..SETUP_SAMPLES {
        let input = i % REFERENCE_INPUTS;
        match time_setup(&ctx(input), i) {
            Ok(s) => setups[input].push(s),
            Err(e) => {
                eprintln!("set-up {i} failed: {e}");
                report.op(false);
            }
        }
    }
    let mut rungs = Vec::new();
    for (k, p) in plan.iter().enumerate() {
        let (rate, _) = RUNGS[p.rung];
        // The first reference rung also recovers from its Kill.
        let recover = p.rung == REFERENCE_RUNG && p.input == 0;
        match run_rung(
            &ctx(p.input),
            k,
            rate,
            p.seconds,
            p.per_session,
            recover,
            report,
        ) {
            Ok(mut rung) => {
                rung.rung = p.rung;
                setups[p.input].push(rung.setup_s);
                rungs.push(rung);
            }
            Err(e) => {
                eprintln!("rung {rate} dps (input {}) failed: {e}", p.input);
                report.op(false);
                break;
            }
        }
    }
    let mut wal_ms = Vec::new();
    let mut codec = (Vec::new(), Vec::new(), 0usize);
    if traced && rungs.len() == plan.len() {
        match time_wal_and_codec(&inputs, &dir, &mut codec) {
            Ok(samples) => wal_ms = samples,
            Err(e) => {
                eprintln!("WAL timing failed: {e}");
                report.op(false);
            }
        }
    }
    if let Ok(home) = home {
        let _ = std::env::set_current_dir(home);
    }
    let _ = std::fs::remove_dir_all(&dir);
    if rungs.len() == plan.len() {
        summarize(&rungs, &setups, &wal_ms, &codec, traced, report);
    }
}

/// One set-up sample: bind + admit until every session answers a
/// `Query`, then `Kill`.
fn time_setup(ctx: &Ctx<'_>, index: usize) -> Result<f64, NetError> {
    let store_root = ctx.dir.join(format!("setup-{index}"));
    let t = Instant::now();
    let socket = PathBuf::from(format!("s{index}.sock"));
    let incarnation = Incarnation::spawn(&socket, &store_root, &ctx.input.traffic)?;
    let mut reader = Client::connect_retry(&incarnation.addr, Duration::from_secs(30))?;
    for name in SESSIONS {
        reader.query(name)?;
    }
    let setup_s = t.elapsed().as_secs_f64();
    reader.kill()?;
    drop(reader);
    incarnation.join()?;
    let _ = std::fs::remove_dir_all(&store_root);
    Ok(setup_s)
}

fn run_rung(
    ctx: &Ctx<'_>,
    index: usize,
    rate: f64,
    seconds: f64,
    per_session: usize,
    recover: bool,
    report: &mut Report,
) -> Result<Rung, NetError> {
    let mut rung = Rung {
        rate,
        ..Default::default()
    };
    let store_root = ctx.dir.join(format!("rung-{index}"));
    // Short relative socket paths keep clear of the Unix path limit.
    let socket = |generation: u32| PathBuf::from(format!("r{index}-{generation}.sock"));
    reset_peak_rss();

    // Set-up: bind + admit until every session answers a Query.
    let t = Instant::now();
    let incarnation = Incarnation::spawn(&socket(0), &store_root, &ctx.input.traffic)?;
    let mut ingest = Client::connect_retry(&incarnation.addr, Duration::from_secs(30))?;
    let mut reader = Client::connect_retry(&incarnation.addr, Duration::from_secs(30))?;
    for name in SESSIONS {
        reader.query(name)?;
    }
    rung.setup_s = t.elapsed().as_secs_f64();

    // The rung's frames, interleaved across sessions, with the entity
    // count each one must make visible.
    let mut entities: Vec<u64> = Vec::new();
    for name in SESSIONS {
        entities.push(reader.status(name)?.entities);
    }
    let mut frames: Vec<(usize, &DatasetDelta)> = Vec::new();
    for step in 0..per_session {
        for (s, t) in ctx.input.traffic.iter().enumerate() {
            frames.push((s, &t.deltas[step]));
        }
    }
    let worker_cpu = threads_cpu_seconds(WORKER_THREADS);
    let start = Instant::now() + Duration::from_millis(20);
    let schedule = Schedule::new(start, rate);
    let mut sent: Vec<Sent> = frames
        .iter()
        .enumerate()
        .map(|(i, &(s, delta))| {
            let added = delta.add_entities.len() as u64;
            entities[s] += added;
            Sent {
                session: s,
                expect_entities: (added > 0).then_some(entities[s]),
                due: schedule.due(i),
                visible: None,
            }
        })
        .collect();
    let queries = (QUERY_RATE * seconds).ceil() as usize;
    let query_schedule = Schedule::new(start, QUERY_RATE);
    let last_due = schedule
        .due(frames.len().saturating_sub(1))
        .max(query_schedule.due(queries.saturating_sub(1)));
    let give_up = last_due + DRAIN_LIMIT;

    // The open loop: one thread, two connections.
    let (mut next_frame, mut next_query) = (0usize, 0usize);
    let mut next_poll = start;
    let mut backlog: Vec<(Instant, usize)> = Vec::new();
    loop {
        let now = Instant::now();
        if next_frame < frames.len() && now >= sent[next_frame].due {
            let (s, delta) = frames[next_frame];
            let frame = StreamFrame::Delta {
                session: SESSIONS[s].to_owned(),
                delta: Box::new(delta.clone()),
            };
            let t = Instant::now();
            let ok = ingest.ingest(&frame);
            rung.ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
            rung.lag_ms.push(lag_ms(sent[next_frame].due, t));
            report.op(ok.is_ok());
            ok?;
            next_frame += 1;
            continue;
        }
        if next_query < queries && now >= query_schedule.due(next_query) {
            let name = SESSIONS[next_query % SESSIONS.len()];
            let due = query_schedule.due(next_query);
            let result = reader.query(name);
            rung.query_ms.push(latency_ms(due, Instant::now()));
            report.op(result.is_ok());
            let pairs = result?;
            rung.query_bytes = rung.query_bytes.max(
                Response::Matches {
                    session: name.to_owned(),
                    pairs,
                }
                .encode()
                .1
                .len(),
            );
            next_query += 1;
            continue;
        }
        // Sessions with a sent, sampled frame not yet visible.
        let pending: Vec<usize> = (0..SESSIONS.len())
            .filter(|&s| {
                sent[..next_frame]
                    .iter()
                    .any(|f| f.session == s && f.expect_entities.is_some() && f.visible.is_none())
            })
            .collect();
        if next_frame == frames.len() && next_query == queries && pending.is_empty() {
            break;
        }
        if now > give_up {
            break;
        }
        if !pending.is_empty() && now >= next_poll {
            for s in pending {
                let t = Instant::now();
                let status = reader.status(SESSIONS[s])?;
                let seen = Instant::now();
                rung.status_ms.push((seen - t).as_secs_f64() * 1e3);
                for f in sent[..next_frame].iter_mut() {
                    if f.session == s
                        && f.visible.is_none()
                        && f.expect_entities
                            .is_some_and(|want| status.entities >= want)
                    {
                        f.visible = Some(seen);
                    }
                }
            }
            let unseen = sent[..next_frame]
                .iter()
                .filter(|f| f.expect_entities.is_some() && f.visible.is_none())
                .count();
            backlog.push((Instant::now(), unseen));
            next_poll = Instant::now() + POLL;
            continue;
        }
        let mut wake = give_up;
        if next_frame < frames.len() {
            wake = wake.min(sent[next_frame].due);
        }
        if next_query < queries {
            wake = wake.min(query_schedule.due(next_query));
        }
        if next_frame > 0 {
            wake = wake.min(next_poll);
        }
        let now = Instant::now();
        if wake > now {
            std::thread::sleep((wake - now).min(Duration::from_millis(1)));
        }
    }
    rung.frames_sent = next_frame;
    rung.backlog_grew = backlog_grew(&backlog, start, last_due);
    // Frames that add no entity cannot be seen in `Status`; a `Drain`
    // (every queued frame applied) stands in for them.
    reader.drain()?;
    match (worker_cpu, threads_cpu_seconds(WORKER_THREADS)) {
        (Some(a), Some(b)) => rung.worker_cpu_s = (b - a) / next_frame.max(1) as f64,
        _ => report.check(
            &format!("rung {rate} dps: the daemon's {WORKER_THREADS}* worker threads are found"),
            false,
        ),
    }
    let mut all_visible = next_frame == frames.len();
    for f in &sent[..next_frame] {
        match (f.expect_entities, f.visible) {
            (Some(_), Some(v)) => {
                rung.visible_ms.push(latency_ms(f.due, v));
                rung.sampled += 1;
            }
            (Some(_), None) => all_visible = false,
            (None, _) => {}
        }
    }
    report.check(
        &format!("rung {rate} dps: every sent frame became visible before the rung ended"),
        all_visible,
    );

    // Kill, then recover into a new incarnation.
    let mut digests = Vec::new();
    for name in SESSIONS {
        digests.push(reader.digest(name)?);
    }
    let t_kill = Instant::now();
    reader.kill()?;
    drop((ingest, reader));
    let (killed, kind) = incarnation.join()?;
    report.check(
        &format!("rung {rate} dps: Kill stopped the daemon without checkpoints"),
        kind == ShutdownKind::Killed,
    );
    // The reference rung recovers into a new incarnation; the killed
    // daemon stays in memory (idle: every frame was drained) until the
    // recovery has been timed.
    let revived = if recover {
        let revived = Incarnation::spawn(&socket(1), &store_root, &ctx.input.traffic)?;
        let mut reader = Client::connect_retry(&revived.addr, Duration::from_secs(30))?;
        let mut answers = Vec::new();
        for name in SESSIONS {
            answers.push(reader.query(name)?);
        }
        rung.recover_s = t_kill.elapsed().as_secs_f64();
        let mut same = true;
        for (s, name) in SESSIONS.iter().enumerate() {
            same &= reader.digest(name)? == digests[s];
        }
        report.check("recovered digests equal the pre-kill ones", same);
        Some((revived, reader, answers))
    } else {
        None
    };
    for (s, name) in SESSIONS.iter().enumerate() {
        let stats = killed.stats(name).expect("admitted");
        rung.batches += stats.batches;
        rung.frames_applied += stats.frames_applied;
        rung.shed_events += stats.shed_events;
        rung.budget_misses += stats.budget_misses;
        rung.degraded_to_cold += stats.degraded_to_cold;
        rung.staleness_ms
            .extend_from_slice(&stats.staleness_samples_ms);
        let ops = killed.op_log(name).expect("admitted");
        let replayed = if ctx.traced {
            Some(
                timed_replay(&ctx.input.traffic[s].initial, ops, &mut rung)
                    .map_err(NetError::Serve)?,
            )
        } else {
            None
        };
        let standalone = if !ctx.traced || recover {
            let t = Instant::now();
            let session = killed.replay_standalone(name).map_err(NetError::Serve)?;
            rung.standalone_replay_s += t.elapsed().as_secs_f64();
            Some(session)
        } else {
            None
        };
        let ok = replayed
            .iter()
            .chain(standalone.iter())
            .all(|session| session.state_digest() == digests[s]);
        report.check(
            &format!("rung {rate} dps: {name} equals the standalone replay of its op log"),
            ok,
        );
    }
    drop(killed);
    rung.peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    let Some((revived, mut reader, answers)) = revived else {
        let _ = std::fs::remove_dir_all(&store_root);
        log_rung(&rung);
        return Ok(rung);
    };
    reader.shutdown()?;
    drop(reader);
    let (mut daemon, _) = revived.join()?;

    // Accuracy of the recovered fixpoints over each session's live
    // references, and (traced) the store layer on the final state.
    let (mut tp, mut fp, mut fn_) = (0, 0, 0);
    for (s, name) in SESSIONS.iter().enumerate() {
        let session = daemon.session_mut(name).map_err(NetError::Serve)?;
        report.check(
            &format!("{name} entity ids follow the template"),
            ids_follow_template(session.dataset(), &ctx.input.template),
        );
        let matches: PairSet = answers[s].iter().copied().collect();
        let pr = em_eval::pairwise_metrics(
            &matches,
            |p| ctx.input.truth.is_match(p),
            live_true_pairs(session.dataset(), &ctx.input.truth),
        );
        tp += pr.tp;
        fp += pr.fp;
        fn_ += pr.fn_;
        if ctx.traced {
            let t = Instant::now();
            let bytes = session
                .checkpoint()
                .map_err(|e| NetError::Server(e.to_string()))?;
            rung.checkpoint_s += t.elapsed().as_secs_f64();
            rung.snapshot_bytes += bytes;
        }
    }
    drop(daemon);
    if ctx.traced {
        for (s, name) in SESSIONS.iter().enumerate() {
            let t = Instant::now();
            em::SessionStore::recover(
                &store_root.join(name),
                session_pipeline(ctx.input.traffic[s].initial.clone()),
            )
            .map_err(|e| NetError::Server(e.to_string()))?;
            rung.store_recover_s += t.elapsed().as_secs_f64();
        }
    }
    rung.f1_counts = (tp, fp, fn_);
    let _ = std::fs::remove_dir_all(&store_root);
    log_rung(&rung);
    Ok(rung)
}

fn log_rung(rung: &Rung) {
    eprintln!(
        "rung {} dps: {} frames, visible p50 {:.1} ms, {} batches ({:.2} frames/batch), \
         setup {:.3} s, recover {:.3} s",
        rung.rate,
        rung.frames_sent,
        median(&rung.visible_ms).unwrap_or(f64::NAN),
        rung.batches,
        rung.frames_per_batch(),
        rung.setup_s,
        rung.recover_s
    );
}

/// Replay one session's op log standalone under timers: the `session`
/// (em umbrella) layer's per-update and per-warm-run costs.
fn timed_replay(
    initial: &Dataset,
    ops: &[Op],
    rung: &mut Rung,
) -> Result<MatchSession, ServeError> {
    let t_all = Instant::now();
    let mut session = session_pipeline(initial.clone()).build()?;
    let mut runs = 0usize;
    for op in ops {
        match op {
            Op::Update(delta) => {
                let t = Instant::now();
                let r = session.update(delta);
                rung.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
                rung.pairs_reblocked += r.pairs_reblocked;
                rung.components_invalidated += r.components_invalidated;
                rung.memos_dropped += r.memos_dropped;
                rung.replay_degraded += u64::from(r.degraded_to_cold());
            }
            Op::ResetWarm => session.reset_warm(),
            Op::Run => {
                let t = Instant::now();
                session.run();
                // The first run is the admission's cold one.
                if runs > 0 {
                    rung.warm_run_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                runs += 1;
            }
        }
    }
    rung.replay_s += t_all.elapsed().as_secs_f64();
    Ok(session)
}

/// The store and net layers measured on the run's frames: fsync'd WAL
/// appends (the session store's fsync-on-commit policy), and the
/// stream frame codec.
fn time_wal_and_codec(
    inputs: &[Input],
    dir: &Path,
    codec: &mut (Vec<f64>, Vec<f64>, usize),
) -> Result<Vec<f64>, Box<dyn std::error::Error>> {
    let path: PathBuf = dir.join("trace.wal");
    let (mut wal, _) = Wal::open(&path)?;
    let mut append_ms = Vec::new();
    for t in inputs.iter().flat_map(|input| &input.traffic) {
        for delta in &t.deltas {
            let frame = StreamFrame::Delta {
                session: t.name.to_owned(),
                delta: Box::new(delta.clone()),
            };
            let start = Instant::now();
            let (kind, payload) = frame.encode();
            codec.0.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            let decoded = StreamFrame::decode(kind, &payload)?;
            codec.1.push(start.elapsed().as_secs_f64() * 1e6);
            if decoded != frame {
                return Err("stream frame did not round-trip".into());
            }
            codec.2 += payload.len();
            let start = Instant::now();
            wal.append(kind, &payload)?;
            append_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    drop(wal);
    std::fs::remove_file(&path)?;
    Ok(append_ms)
}

fn push_summary(report: &mut Report, name: &str, unit: &'static str, samples: &[f64], scale: f64) {
    if let Some(s) = Summary::of(samples) {
        report.push(&format!("{name}_p50"), unit, s.p50 * scale, s.n);
        match p95(samples) {
            Some(v) => report.push(&format!("{name}_p95"), unit, v * scale, s.n),
            None => {
                if let Some((q, v)) = s.tail.filter(|&(q, _)| q > 50.0) {
                    // Too few samples for a p95: report what they support.
                    report.push(&format!("{name}_p{q:.0}"), unit, v * scale, s.n);
                }
                eprintln!("{name}_p95 refused: {} samples", s.n);
            }
        }
    }
}

/// One rate's rungs folded into one: samples concatenated, counters
/// summed (only the recovering rung carries recovery figures).
fn pool(parts: &[&Rung]) -> Rung {
    let mut out = Rung {
        rung: parts[0].rung,
        rate: parts[0].rate,
        ..Default::default()
    };
    for r in parts {
        out.visible_ms.extend_from_slice(&r.visible_ms);
        out.query_ms.extend_from_slice(&r.query_ms);
        out.lag_ms.extend_from_slice(&r.lag_ms);
        out.ingest_us.extend_from_slice(&r.ingest_us);
        out.status_ms.extend_from_slice(&r.status_ms);
        out.staleness_ms.extend_from_slice(&r.staleness_ms);
        out.update_ms.extend_from_slice(&r.update_ms);
        out.warm_run_ms.extend_from_slice(&r.warm_run_ms);
        out.frames_sent += r.frames_sent;
        out.sampled += r.sampled;
        out.backlog_grew |= r.backlog_grew;
        out.query_bytes = out.query_bytes.max(r.query_bytes);
        out.batches += r.batches;
        out.frames_applied += r.frames_applied;
        out.shed_events += r.shed_events;
        out.budget_misses += r.budget_misses;
        out.degraded_to_cold += r.degraded_to_cold;
        out.pairs_reblocked += r.pairs_reblocked;
        out.components_invalidated += r.components_invalidated;
        out.memos_dropped += r.memos_dropped;
        out.replay_degraded += r.replay_degraded;
        out.recover_s += r.recover_s;
        out.replay_s += r.replay_s;
        out.standalone_replay_s += r.standalone_replay_s;
        out.checkpoint_s += r.checkpoint_s;
        out.snapshot_bytes += r.snapshot_bytes;
        out.store_recover_s += r.store_recover_s;
        let (tp, fp, fn_) = r.f1_counts;
        out.f1_counts.0 += tp;
        out.f1_counts.1 += fp;
        out.f1_counts.2 += fn_;
    }
    out
}

fn summarize(
    rungs: &[Rung],
    setups: &[Vec<f64>],
    wal_ms: &[f64],
    codec: &(Vec<f64>, Vec<f64>, usize),
    traced: bool,
    report: &mut Report,
) {
    let references: Vec<&Rung> = rungs.iter().filter(|r| r.rung == REFERENCE_RUNG).collect();
    let ladder: Vec<Rung> = (0..RUNGS.len())
        .map(|i| pool(&rungs.iter().filter(|r| r.rung == i).collect::<Vec<_>>()))
        .collect();
    let reference = &ladder[REFERENCE_RUNG];
    let rss: Vec<f64> = rungs.iter().map(|r| r.peak_rss_mb).collect();
    // Medians per input, averaged over inputs.
    let setup_s: Vec<f64> = setups.iter().filter_map(|s| median(s)).collect();
    let visible_p50: Vec<f64> = references
        .iter()
        .filter_map(|r| median(&r.visible_ms))
        .collect();
    let worker_cpu: Vec<f64> = references.iter().map(|r| r.worker_cpu_s).collect();
    let (tp, fp, fn_) = reference.f1_counts;
    let f1 = em_eval::PrecisionRecall { tp, fp, fn_ }.f1();

    report.push(
        "setup_s",
        "s",
        mean(&setup_s),
        setups.iter().map(Vec::len).sum(),
    );
    report.push(
        "run_s",
        "s",
        mean(&visible_p50) / 1e3,
        reference.visible_ms.len(),
    );
    report.push("run_cpu_s", "s", mean(&worker_cpu), reference.frames_sent);
    report.push("f1", "ratio", f1, 1);
    report.push(
        "peak_rss_mb",
        "MiB",
        median(&rss).unwrap_or(f64::NAN),
        rss.len(),
    );
    push_summary(report, "visible_ms", "ms", &reference.visible_ms, 1.0);
    push_summary(report, "query_ms", "ms", &reference.query_ms, 1.0);
    let max_rate = ladder
        .iter()
        .filter(|r| r.meets_limit())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    report.push("max_rate_dps", "deltas/s", max_rate, ladder.len());
    report.push("recover_s", "s", reference.recover_s, 1);
    for r in &ladder {
        eprintln!(
            "{} dps: {} frames, tail {:.1} ms, {:.2} frames/batch, backlog grew {}, meets limit {}",
            r.rate,
            r.frames_sent,
            r.tail_ms().unwrap_or(f64::NAN),
            r.frames_per_batch(),
            r.backlog_grew,
            r.meets_limit()
        );
    }
    if !traced {
        return;
    }

    // session: op-log replays, pooled over every rung.
    let all = pool(&rungs.iter().collect::<Vec<_>>());
    let (update_ms, warm_ms) = (&all.update_ms, &all.warm_run_ms);
    push_summary(report, "session.update_ms", "ms", update_ms, 1.0);
    push_summary(report, "session.warm_run_ms", "ms", warm_ms, 1.0);
    report.push(
        "session.pairs_reblocked",
        "count",
        all.pairs_reblocked as f64,
        1,
    );
    report.push(
        "session.components_invalidated",
        "count",
        all.components_invalidated as f64,
        1,
    );
    report.push(
        "session.memos_dropped",
        "count",
        all.memos_dropped as f64,
        1,
    );
    report.push(
        "session.degraded_to_cold",
        "count",
        all.replay_degraded as f64,
        1,
    );

    // store.
    push_summary(report, "store.wal_append_ms", "ms", wal_ms, 1.0);
    report.push("store.checkpoint_s", "s", reference.checkpoint_s, 1);
    report.push(
        "store.snapshot_bytes",
        "bytes",
        reference.snapshot_bytes as f64,
        1,
    );
    report.push("store.recover_s", "s", reference.store_recover_s, 1);

    // serve: the daemon's own counters at the reference rung.
    report.push("serve.batches", "count", reference.batches as f64, 1);
    report.push(
        "serve.frames_per_batch",
        "ratio",
        reference.frames_per_batch(),
        1,
    );
    report.push(
        "serve.frames_per_batch_lowest",
        "ratio",
        ladder[0].frames_per_batch(),
        1,
    );
    report.push(
        "serve.frames_per_batch_highest",
        "ratio",
        ladder[ladder.len() - 1].frames_per_batch(),
        1,
    );
    report.push(
        "serve.shed_events",
        "count",
        reference.shed_events as f64,
        1,
    );
    report.push(
        "serve.budget_misses",
        "count",
        reference.budget_misses as f64,
        1,
    );
    report.push(
        "serve.degraded_to_cold",
        "count",
        reference.degraded_to_cold as f64,
        1,
    );
    let staleness = &all.staleness_ms;
    match p95(staleness) {
        Some(v) => report.push("serve.staleness_ms_p95", "ms", v, staleness.len()),
        None => eprintln!(
            "serve.staleness_ms_p95 refused: {} samples",
            staleness.len()
        ),
    }

    // net: client-side timers and the frame codec.
    let per = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.push(
        "net.ingest_us_p50",
        "us",
        median(&reference.ingest_us).unwrap_or(f64::NAN),
        reference.ingest_us.len(),
    );
    report.push(
        "net.status_ms_p50",
        "ms",
        median(&reference.status_ms).unwrap_or(f64::NAN),
        reference.status_ms.len(),
    );
    report.push("net.frame_encode_us", "us", per(&codec.0), codec.0.len());
    report.push("net.frame_decode_us", "us", per(&codec.1), codec.1.len());
    report.push("net.bytes_ingested", "bytes", codec.2 as f64, codec.0.len());
    report.push("net.query_bytes", "bytes", reference.query_bytes as f64, 1);

    // loadgen and trace.
    let lag = &all.lag_ms;
    match p95(lag) {
        Some(v) => report.push("loadgen.lag_ms_p95", "ms", v, lag.len()),
        None => eprintln!("loadgen.lag_ms_p95 refused: {} samples", lag.len()),
    }
    report.push(
        "loadgen.sampled_share",
        "ratio",
        reference.sampled as f64 / reference.frames_sent.max(1) as f64,
        reference.frames_sent,
    );
    // Only the recovering rung replays both ways.
    if let Some(r) = rungs.iter().find(|r| r.standalone_replay_s > 0.0) {
        report.push(
            "trace.overhead_pct",
            "%",
            (r.replay_s / r.standalone_replay_s - 1.0) * 100.0,
            1,
        );
    }
    let named = median(update_ms).unwrap_or(0.0)
        + median(warm_ms).unwrap_or(0.0)
        + median(wal_ms).unwrap_or(0.0);
    report.push(
        "trace.coverage",
        "ratio",
        named / median(&reference.visible_ms).unwrap_or(f64::NAN),
        1,
    );
}
