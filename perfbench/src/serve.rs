//! The two serving workloads against the real `tspn-serve` binary.
//!
//! * `serve_repeat` replays the dataset's own `/v1/predict` payloads in
//!   seeded order to one two-lane server. Histories repeat and fit in the
//!   model's 4096-entry history memo, so the cost is HTTP, the batcher
//!   wait, fusion and scoring: the workload exercises the batcher and the
//!   I/O layers and bypasses history encoding.
//! * `serve_session_cold` runs virtual users through the session API
//!   behind `--route` over two single-lane backends. Each virtual user
//!   replays a stretch of one dataset user's own check-ins. Each step
//!   appends one check-in more than 72 h after the last (a new trajectory,
//!   so a new history) and pipelines a session predict behind it: every
//!   predict misses the memo, and QR-P build plus HGAT dominate the
//!   forward.
//!
//! After timing, every served ranking is checked bitwise against the
//! offline `Predictor::predict_batch` on the identical check-in stream.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use serde::Value;
use tspn_core::{Predictor, Query, SpatialContext, TopK, Trainer, TspnConfig};
use tspn_data::synth::{generate_dataset, SynthConfig};
use tspn_data::{AdHocTrajectory, Sample, SampleSplit, UserId, Visit, DEFAULT_GAP_SECS};
use tspn_serve::protocol;

use crate::fleet::{self, Fleet};
use crate::openloop::{self, Kind, Op, Record};
use crate::util::{self, jnum, jobj, jstr, quantile, rng_for};
use crate::{Env, Report};

/// p99 latency limit of a passing ladder step.
pub const SLO_MS: f64 = 10.0;
/// Load connections (and so load threads).
pub const CONNS: usize = 2;
/// Answers carry the top 20 POIs so Recall@20 is observable.
pub const TOP: usize = 20;
/// A step whose generator ran later than this at p99 measured the client,
/// not the server, and is marked invalid.
const GEN_LATE_LIMIT_MS: f64 = 2.0;
/// Lead time before the first scheduled step of a phase, so the
/// sessions created at its start exist before their first step is due.
const LEAD: Duration = Duration::from_millis(100);
/// Boots per run; set-up time is their median.
const BOOTS: usize = 15;
/// Operations per latency window: a phase's latency quantiles are taken
/// per window of consecutive operations.
const WINDOW_OPS: usize = 150;
/// Virtual users active at once in the session workload.
const SLOTS: usize = 32;
/// Check-in steps per session, and check-ins a session is created with.
const STEPS_PER_SESSION: usize = 12;
const SEED_CHECKINS: usize = 4;
const WEEK_SECS: i64 = 7 * 86_400;
/// Entries of the server-side history memo the repeat fraction refers to.
const MEMO_WINDOW: usize = 4096;
/// Offline verification batch; its median rate is `eval_queries_per_s`.
const OFFLINE_CHUNK: usize = 128;
/// Training epochs of the quality probe.
pub const EPOCHS: usize = 2;

/// The city every workload uses, resolved as `tspn-serve --preset nyc
/// --scale 1 --days 80` resolves it: `nyc_mini(1.0)` over 80 days. It
/// does not vary with the workload seed: quality differs too much between
/// generated cities (Recall@5 ranged 0.037-0.094 over five seeds) for any
/// bound to hold, so the seed drives the request streams instead.
pub fn dataset_config() -> SynthConfig {
    let mut dcfg = tspn_serve::preset_dataset_config(fleet::PRESET, fleet::SCALE)
        .expect("the served preset exists");
    dcfg.days = fleet::DAYS;
    dcfg
}

/// The fixed 80/10/10 split the quality probe trains and evaluates on.
pub fn split(ctx: &SpatialContext) -> SampleSplit {
    ctx.dataset.split_samples(&mut rng_for(0, "split"))
}

/// Samples as prediction items.
pub fn sample_items(ctx: &SpatialContext, samples: &[Sample]) -> Vec<Item> {
    samples
        .iter()
        .map(|s| Item {
            user: s.user_index,
            checkins: ctx.dataset.sample_checkins(s),
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    Repeat,
    SessionCold,
}

impl Flavor {
    /// Reference rate, in operations per second (requests, or check-in
    /// steps): about half of the capacity with the 2 ms batch timer.
    pub fn reference_rate(self) -> f64 {
        match self {
            Flavor::Repeat => 400.0,
            Flavor::SessionCold => 300.0,
        }
    }

    /// First rung of the load ladder: low enough that the rung passes on
    /// every seed, so capacity is always bracketed.
    fn ladder_base(self) -> f64 {
        self.reference_rate() / 4.0
    }

    pub fn start(self, bin: &str) -> Result<Fleet, String> {
        match self {
            Flavor::Repeat => Fleet::single(bin, 2),
            Flavor::SessionCold => Fleet::routed(bin, 2),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Flavor::Repeat => "serve_repeat",
            Flavor::SessionCold => "serve_session_cold",
        }
    }
}

/// The served model and context, rebuilt here exactly as the server
/// builds them, so the offline reference agrees with it bitwise.
pub fn served_context() -> (TspnConfig, SpatialContext) {
    let cfg = tspn_serve::default_model_config();
    let (ds, world) = generate_dataset(dataset_config());
    let ctx = SpatialContext::build(ds, world, &cfg);
    (cfg, ctx)
}

/// One prediction the workload asks for: a user's full check-in stream.
#[derive(Clone)]
pub struct Item {
    pub user: usize,
    pub checkins: Vec<Visit>,
}

impl Item {
    pub fn query(&self, k: usize) -> Query {
        let traj =
            AdHocTrajectory::from_checkins(UserId(self.user), &self.checkins, DEFAULT_GAP_SECS)
                .expect("workload streams are ordered and non-empty");
        Query::adhoc(Arc::new(traj), k, TOP)
    }

    /// The history the model encodes: every earlier trajectory's visits,
    /// windowed to the model's `max_history`.
    pub fn history(&self, max_history: usize) -> Vec<Visit> {
        let traj =
            AdHocTrajectory::from_checkins(UserId(self.user), &self.checkins, DEFAULT_GAP_SECS)
                .expect("workload streams are ordered and non-empty");
        let h = traj.history;
        h[h.len().saturating_sub(max_history)..].to_vec()
    }

    pub fn v1_body(&self, k: usize) -> String {
        protocol::v1_predict_request_body(self.user, &self.checkins, k, TOP)
    }
}

/// The dataset's own samples as `/v1/predict` payloads, in seeded order.
pub fn repeat_items(ctx: &SpatialContext, seed: u64) -> Vec<Item> {
    let mut samples = ctx.dataset.all_samples();
    let mut rng = rng_for(seed, "repeat-order");
    for i in (1..samples.len()).rev() {
        samples.swap(i, rng.gen_range(0..=i));
    }
    sample_items(ctx, &samples)
}

/// One virtual user's session: the check-ins it is created with and the
/// ones its steps append.
#[derive(Clone)]
pub struct SessionPlan {
    pub user: usize,
    pub seeds: Vec<Visit>,
    pub steps: Vec<Visit>,
}

impl SessionPlan {
    /// The item step `k` predicts from: everything appended so far.
    pub fn item(&self, k: usize) -> Item {
        let mut checkins = self.seeds.clone();
        checkins.extend_from_slice(&self.steps[..=k]);
        Item {
            user: self.user,
            checkins,
        }
    }
}

/// Seeded virtual users, each replaying `SEED_CHECKINS +
/// STEPS_PER_SESSION` consecutive check-ins of one dataset user. Each
/// check-in keeps its POI and its time of week and moves forward by whole
/// weeks until it is more than 72 h after the one before, so every
/// check-in opens a new trajectory and every step's history is new.
pub struct SessionGen {
    rng: StdRng,
    /// Each dataset user's check-ins, in time order.
    streams: Vec<Vec<Visit>>,
    pub plans: Vec<SessionPlan>,
}

impl SessionGen {
    pub fn new(seed: u64, ctx: &SpatialContext) -> Self {
        let need = SEED_CHECKINS + STEPS_PER_SESSION;
        let streams = ctx
            .dataset
            .users
            .iter()
            .map(|u| {
                u.trajectories
                    .iter()
                    .flat_map(|t| t.visits.iter().copied())
                    .collect::<Vec<Visit>>()
            })
            .filter(|s| s.len() >= need)
            .collect();
        SessionGen {
            rng: rng_for(seed, "sessions"),
            streams,
            plans: Vec::new(),
        }
    }

    fn push(&mut self, user: usize, seeds: Vec<Visit>, steps: Vec<Visit>) -> usize {
        self.plans.push(SessionPlan { user, seeds, steps });
        self.plans.len() - 1
    }

    fn next(&mut self) -> usize {
        let need = SEED_CHECKINS + STEPS_PER_SESSION;
        let rng = &mut self.rng;
        let stream = &self.streams[rng.gen_range(0..self.streams.len())];
        let start = rng.gen_range(0..=stream.len() - need);
        // A seeded whole-week offset keeps virtual users that replay the
        // same stretch apart.
        let mut shift = WEEK_SECS * rng.gen_range(0..520);
        let mut visits: Vec<Visit> = Vec::with_capacity(need);
        for v in &stream[start..start + need] {
            if let Some(prev) = visits.last() {
                let behind = prev.time + DEFAULT_GAP_SECS - (v.time + shift);
                if behind >= 0 {
                    shift += WEEK_SECS * (behind / WEEK_SECS + 1);
                }
            }
            visits.push(Visit {
                poi: v.poi,
                time: v.time + shift,
            });
        }
        let steps = visits.split_off(SEED_CHECKINS);
        // Distinct users spread sessions over both backends.
        self.push(10_000 + self.plans.len(), visits, steps)
    }

    /// A new session of the same user with the same check-ins as `of`,
    /// `weeks` later: the same work on the same backend, under histories
    /// it has not seen.
    fn shifted(&mut self, of: usize, weeks: i64) -> usize {
        let plan = &self.plans[of];
        let later = |vs: &[Visit]| -> Vec<Visit> {
            vs.iter()
                .map(|v| Visit {
                    poi: v.poi,
                    time: v.time + weeks * WEEK_SECS,
                })
                .collect()
        };
        let (user, seeds, steps) = (plan.user, later(&plan.seeds), later(&plan.steps));
        self.push(user, seeds, steps)
    }
}

/// What one scheduled operation is checked against.
#[derive(Clone)]
pub enum Expect {
    /// Status 200 only (creates, appends, deletes).
    Ok,
    /// A ranking equal to the offline answer for this item.
    Ranking(ItemRef),
}

/// Where a predicted item lives: the repeat stream, or a session step.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemRef {
    Stream(usize),
    Step { session: usize, k: usize },
}

/// A workload phase: scheduled ops, what each must return, and the
/// operations latency is reported for (`(start op, answer op)`: a request
/// is its own start and answer; a step starts at its append and ends at
/// its predict's answer).
#[derive(Clone)]
pub struct Phase {
    pub duration: Duration,
    pub ops: Vec<Op>,
    pub expect: Vec<Expect>,
    pub units: Vec<(usize, usize)>,
    /// Arrival offsets of the units, and the sessions the phase created in
    /// order: what [`Planner::replay`] rebuilds the phase from.
    times: Vec<Duration>,
    sessions: Vec<usize>,
}

/// Builds phases from the seeded streams; the repeat cursor and the
/// session generator carry over from phase to phase.
pub struct Planner {
    pub flavor: Flavor,
    pub items: Vec<Item>,
    cursor: usize,
    pub sessions: SessionGen,
    /// Every prediction scheduled so far, in order.
    pub issued: Vec<ItemRef>,
    rng: StdRng,
    k: usize,
    replays: i64,
}

impl Planner {
    pub fn new(flavor: Flavor, ctx: &SpatialContext, cfg: &TspnConfig, seed: u64) -> Self {
        Planner {
            flavor,
            items: match flavor {
                Flavor::Repeat => repeat_items(ctx, seed),
                Flavor::SessionCold => Vec::new(),
            },
            cursor: 0,
            sessions: SessionGen::new(seed, ctx),
            issued: Vec::new(),
            // Arrival times are the same for every seed (the seed picks
            // payloads and users): the latency tail depends strongly on how
            // arrivals cluster, and a shared schedule keeps that variance
            // out of seed-to-seed comparisons.
            rng: rng_for(0, flavor.name()),
            k: cfg.top_k,
            replays: 0,
        }
    }

    pub fn item(&self, r: ItemRef) -> Item {
        match r {
            ItemRef::Stream(i) => self.items[i].clone(),
            ItemRef::Step { session, k } => self.sessions.plans[session].item(k),
        }
    }

    pub fn query(&self, r: ItemRef) -> Query {
        self.item(r).query(self.k)
    }

    pub fn phase(&mut self, rate: f64, duration: Duration) -> Phase {
        let times = util::poisson_schedule(&mut self.rng, rate, duration);
        let mut ph = Phase {
            duration,
            ops: Vec::new(),
            expect: Vec::new(),
            units: Vec::new(),
            times: Vec::new(),
            sessions: Vec::new(),
        };
        match self.flavor {
            Flavor::Repeat => {
                for (i, t) in times.iter().enumerate() {
                    let idx = self.cursor % self.items.len();
                    self.cursor += 1;
                    ph.units.push((ph.ops.len(), ph.ops.len()));
                    ph.ops.push(Op {
                        due: LEAD + *t,
                        conn: i % CONNS,
                        kind: Kind::Predict,
                        body: self.items[idx].v1_body(self.k),
                    });
                    ph.expect.push(Expect::Ranking(ItemRef::Stream(idx)));
                }
            }
            Flavor::SessionCold => self.session_phase(&times, &mut ph, SessionGen::next),
        }
        ph.times = times;
        self.issue(ph)
    }

    /// The same operations as `ph` on the same schedule. Repeat requests
    /// are sent again as they were; sessions are created afresh with the
    /// same check-ins moved later, so the server does the same work under
    /// histories it has not seen.
    pub fn replay(&mut self, ph: &Phase) -> Phase {
        match self.flavor {
            Flavor::Repeat => self.issue(ph.clone()),
            Flavor::SessionCold => {
                self.replays += 1;
                let weeks = 1000 * self.replays;
                let mut from = ph.sessions.iter().copied();
                let mut again = Phase {
                    ops: Vec::new(),
                    expect: Vec::new(),
                    units: Vec::new(),
                    sessions: Vec::new(),
                    ..ph.clone()
                };
                self.session_phase(&ph.times, &mut again, |g| {
                    let of = from.next().expect("a replay creates what its phase did");
                    g.shifted(of, weeks)
                });
                self.issue(again)
            }
        }
    }

    fn issue(&mut self, ph: Phase) -> Phase {
        self.issued.extend(ph.expect.iter().filter_map(|e| match e {
            Expect::Ranking(r) => Some(*r),
            Expect::Ok => None,
        }));
        ph
    }

    fn session_phase(
        &mut self,
        times: &[Duration],
        ph: &mut Phase,
        mut fresh: impl FnMut(&mut SessionGen) -> usize,
    ) {
        let predict_body = format!("{{\"k\":{},\"top\":{TOP}}}", self.k);
        let push =
            |ph: &mut Phase, due: Duration, conn: usize, kind: Kind, body: String, e: Expect| {
                ph.ops.push(Op {
                    due,
                    conn,
                    kind,
                    body,
                });
                ph.expect.push(e);
                ph.ops.len() - 1
            };
        let mut slots: Vec<(usize, usize)> = Vec::with_capacity(SLOTS);
        for slot in 0..SLOTS {
            let s = fresh(&mut self.sessions);
            ph.sessions.push(s);
            let plan = &self.sessions.plans[s];
            let body = protocol::session_create_body(plan.user, &plan.seeds);
            push(
                ph,
                Duration::ZERO,
                slot % CONNS,
                Kind::Create(s),
                body,
                Expect::Ok,
            );
            slots.push((s, 0));
        }
        for (j, t) in times.iter().enumerate() {
            let slot = j % SLOTS;
            let conn = slot % CONNS;
            let due = LEAD + *t;
            let (s, k) = slots[slot];
            let visit = self.sessions.plans[s].steps[k];
            let a = push(
                ph,
                due,
                conn,
                Kind::Append(s),
                protocol::session_append_body(&[visit]),
                Expect::Ok,
            );
            let p = push(
                ph,
                due,
                conn,
                Kind::SessionPredict(s),
                predict_body.clone(),
                Expect::Ranking(ItemRef::Step { session: s, k }),
            );
            ph.units.push((a, p));
            if k + 1 == STEPS_PER_SESSION {
                push(ph, due, conn, Kind::Delete(s), String::new(), Expect::Ok);
                let next = fresh(&mut self.sessions);
                ph.sessions.push(next);
                let plan = &self.sessions.plans[next];
                let body = protocol::session_create_body(plan.user, &plan.seeds);
                push(ph, due, conn, Kind::Create(next), body, Expect::Ok);
                slots[slot] = (next, 0);
            } else {
                slots[slot] = (s, k + 1);
            }
        }
        let end = LEAD + ph.duration;
        for (slot, &(s, _)) in slots.iter().enumerate() {
            push(
                ph,
                end,
                slot % CONNS,
                Kind::Delete(s),
                String::new(),
                Expect::Ok,
            );
        }
    }
}

/// A served answer, parsed after timing.
pub struct Served {
    pub topk: TopK,
    pub batch: u64,
}

pub fn parse_answer(body: &str) -> Option<Served> {
    let v: Value = serde_json::from_str(body).ok()?;
    let ids = |key: &str| -> Option<Vec<usize>> {
        v.get(key)?
            .as_array()?
            .iter()
            .map(Value::as_usize)
            .collect()
    };
    Some(Served {
        topk: TopK {
            pois: protocol::pois_of(&v)?,
            tiles: ids("tiles")?,
            candidate_count: v.get("candidates")?.as_usize()?,
        },
        batch: v.get("batch")?.as_usize()? as u64,
    })
}

/// Latency quantiles of one window of consecutive operations, and how
/// late the generator sent them (p99), in ms.
#[derive(Clone, Copy)]
pub struct Window {
    pub p25: f64,
    pub p50: f64,
    pub p99: f64,
    pub late_p99: f64,
}

/// Timing summary of one phase (before verification).
pub struct PhaseStats {
    /// Latency of each answered operation, in schedule order.
    pub latencies_ms: Vec<f64>,
    /// How late the generator sent each of those operations.
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub transport_failed: u64,
    pub offered: f64,
    pub achieved: f64,
    pub backlog_mid: usize,
    pub backlog_end: usize,
    pub gen_late_p99_ms: f64,
}

impl PhaseStats {
    pub fn p50(&self) -> f64 {
        median_of(&self.windows(), |w| w.p50)
    }

    pub fn p99(&self) -> f64 {
        median_of(&self.windows(), |w| w.p99)
    }

    /// The phase cut into windows of about `WINDOW_OPS` consecutive
    /// operations. Quantiles are taken per window and then combined, so a
    /// burst of descheduling on a shared machine moves a few windows, not
    /// the reported figure.
    pub fn windows(&self) -> Vec<Window> {
        let n = self.latencies_ms.len();
        let size = n.div_ceil((n / WINDOW_OPS).max(1)).max(1);
        self.latencies_ms
            .chunks(size)
            .zip(self.late_ms.chunks(size))
            .map(|(lat, late)| Window {
                p25: quantile(lat, 0.25),
                p50: quantile(lat, 0.5),
                p99: quantile(lat, 0.99),
                late_p99: quantile(late, 0.99),
            })
            .collect()
    }
}

pub fn phase_stats(ph: &Phase, recs: &[Record]) -> PhaseStats {
    let ok = |i: usize| recs[i].status == 200;
    let answered: Vec<(usize, usize)> = ph
        .units
        .iter()
        .copied()
        .filter(|&(a, p)| ok(a) && ok(p))
        .collect();
    let latencies_ms: Vec<f64> = answered
        .iter()
        .map(|&(a, p)| util::secs_ms(recs[p].done.saturating_sub(ph.ops[a].due)))
        .collect();
    let late_ms: Vec<f64> = answered
        .iter()
        .map(|&(a, _)| util::secs_ms(recs[a].sent.saturating_sub(ph.ops[a].due)))
        .collect();
    let first_due = ph.units.first().map_or(LEAD, |&(a, _)| ph.ops[a].due);
    let last_done = ph
        .units
        .iter()
        .map(|&(_, p)| recs[p].done)
        .max()
        .unwrap_or(first_due);
    let span = last_done.saturating_sub(first_due).as_secs_f64().max(1e-9);
    // Backlog: operations due by `t` and not yet answered at `t`.
    let backlog_at = |t: Duration| {
        ph.units
            .iter()
            .filter(|&&(a, p)| ph.ops[a].due <= t && (recs[p].status == 0 || recs[p].done > t))
            .count()
    };
    let last_due = ph.units.last().map_or(LEAD, |&(a, _)| ph.ops[a].due);
    let late: Vec<f64> = ph
        .ops
        .iter()
        .zip(recs)
        .filter(|(_, r)| r.status != 0)
        .map(|(op, r)| util::secs_ms(r.sent.saturating_sub(op.due)))
        .collect();
    PhaseStats {
        attempted: ph.ops.len() as u64,
        transport_failed: recs.iter().filter(|r| r.status != 200).count() as u64,
        offered: ph.units.len() as f64 / ph.duration.as_secs_f64(),
        achieved: latencies_ms.len() as f64 / span,
        latencies_ms,
        late_ms,
        backlog_mid: backlog_at(LEAD + ph.duration / 2),
        backlog_end: backlog_at(last_due),
        gen_late_p99_ms: quantile(&late, 0.99),
    }
}

/// Checks every answer of a phase against the offline reference. Returns
/// `(mismatches, answers)` where `answers` maps op index to the served
/// answer of each ranking op; references are memoised in `refs`.
pub fn verify(
    planner: &Planner,
    reference: &Predictor,
    ph: &Phase,
    recs: &[Record],
    refs: &mut HashMap<ItemRef, TopK>,
    offline_rates: &mut Vec<f64>,
) -> (u64, HashMap<usize, Served>) {
    let mut seen = HashSet::new();
    let wanted: Vec<ItemRef> = ph
        .expect
        .iter()
        .filter_map(|e| match e {
            Expect::Ranking(r) => Some(*r),
            Expect::Ok => None,
        })
        .filter(|r| !refs.contains_key(r) && seen.insert(*r))
        .collect();
    for chunk in wanted.chunks(OFFLINE_CHUNK) {
        let queries: Vec<Query> = chunk.iter().map(|&r| planner.query(r)).collect();
        let t0 = Instant::now();
        let answers = reference.predict_batch(&queries);
        if queries.len() == OFFLINE_CHUNK {
            offline_rates.push(queries.len() as f64 / t0.elapsed().as_secs_f64());
        }
        refs.extend(chunk.iter().copied().zip(answers));
    }
    let mut mismatches = 0u64;
    let mut served = HashMap::new();
    for (i, (e, r)) in ph.expect.iter().zip(recs).enumerate() {
        if r.status != 200 {
            continue;
        }
        if let Expect::Ranking(item) = e {
            match parse_answer(&r.body) {
                Some(s) if refs.get(item) == Some(&s.topk) => {
                    served.insert(i, s);
                }
                _ => mismatches += 1,
            }
        }
    }
    (mismatches, served)
}

/// For each item, whether its encoded history was already among the
/// previous 4096 requests' histories: a history-memo hit on a server
/// that answered them.
pub fn history_repeats(items: &[Item], max_history: usize) -> Vec<bool> {
    let mut window: VecDeque<Vec<(usize, i64)>> = VecDeque::with_capacity(MEMO_WINDOW);
    let mut counts: HashMap<Vec<(usize, i64)>, usize> = HashMap::new();
    let mut repeats = Vec::with_capacity(items.len());
    for item in items {
        let key: Vec<(usize, i64)> = item
            .history(max_history)
            .iter()
            .map(|v| (v.poi.0, v.time))
            .collect();
        repeats.push(counts.get(&key).copied().unwrap_or(0) > 0);
        *counts.entry(key.clone()).or_default() += 1;
        window.push_back(key);
        if window.len() > MEMO_WINDOW {
            if let Some(old) = window.pop_front() {
                if let Some(c) = counts.get_mut(&old) {
                    *c -= 1;
                }
            }
        }
    }
    repeats
}

/// Descriptors of the workload's input: the history repeat fraction (see
/// [`history_repeats`]), and the mean length and mean distinct-POI count
/// of the encoded histories.
pub fn history_profile(items: &[Item], max_history: usize) -> (f64, f64, f64) {
    let n = items.len().max(1) as f64;
    let repeats = history_repeats(items, max_history);
    let (mut total_len, mut total_distinct) = (0usize, 0usize);
    for item in items {
        let h = item.history(max_history);
        total_len += h.len();
        total_distinct += h.iter().map(|v| v.poi).collect::<HashSet<_>>().len();
    }
    (
        repeats.iter().filter(|&&r| r).count() as f64 / n,
        total_len as f64 / n,
        total_distinct as f64 / n,
    )
}

/// Trains the served model configuration for two epochs on the fixed
/// training split: the median epoch rate, and the trained model's
/// quality on the test split (bitwise repeatable per threads and kernel
/// tier, so it guards the training numerics).
pub fn training_probe(
    cfg: &TspnConfig,
    ctx: &SpatialContext,
) -> (f64, tspn_metrics::RankingMetrics) {
    let mut trainer = Trainer::new(cfg.clone(), ctx.clone());
    let split = split(ctx);
    let rates: Vec<f64> = trainer
        .fit_epochs(&split.train, EPOCHS)
        .iter()
        .map(|e| split.train.len() as f64 / e.seconds)
        .collect();
    let outcomes = trainer.evaluate(&split.test);
    (
        util::median(&rates),
        tspn_metrics::evaluate_ranks(outcomes.iter().map(|o| o.rank)),
    )
}

fn median_of(windows: &[Window], f: fn(&Window) -> f64) -> f64 {
    util::median(&windows.iter().map(f).collect::<Vec<_>>())
}

/// The reference quantiles of a phase: medians over the calmer half of its
/// windows, ranked by how late the generator ran in each. On a shared
/// machine, a window whose generator ran late timed a descheduled machine,
/// not the server. `late_p99` is that of the latest window kept.
pub fn calm_quantiles(windows: &[Window]) -> Window {
    let mut calm = windows.to_vec();
    calm.sort_by(|a, b| a.late_p99.total_cmp(&b.late_p99));
    calm.truncate(windows.len().div_ceil(2));
    Window {
        p25: median_of(&calm, |w| w.p25),
        p50: median_of(&calm, |w| w.p50),
        p99: median_of(&calm, |w| w.p99),
        late_p99: calm.iter().map(|w| w.late_p99).fold(0.0, f64::max),
    }
}

/// `(valid, pass)` of a load step. A step is valid when the generator
/// kept to its schedule; it passes when, in addition, no operation
/// failed, p99 met the SLO, and the backlog left at the last intended
/// send is no more than an in-SLO server holds (Little's law: rate × SLO).
fn judge(st: &PhaseStats, failed: u64) -> (bool, bool) {
    let valid = st.gen_late_p99_ms <= GEN_LATE_LIMIT_MS;
    let steady = st.backlog_end as f64 <= 2.0 + st.offered * SLO_MS / 1e3;
    (valid, valid && failed == 0 && st.p99() <= SLO_MS && steady)
}

/// Self-check of the verification path: a faithful answer passes, the
/// same answer with two POIs swapped is a mismatch.
pub fn check_verifier() -> Result<(), String> {
    let (cfg, ctx) = served_context();
    let mut planner = Planner::new(Flavor::Repeat, &ctx, &cfg, 1);
    let reference = Predictor::new(cfg, ctx);
    let ph = planner.phase(4.0, Duration::from_secs(1));
    let Some(Expect::Ranking(item)) = ph.expect.first().cloned() else {
        return Err("verifier check: no ranking op".into());
    };
    let truth = reference.predict_batch(&[planner.query(item)]).remove(0);
    let mut wrong = truth.clone();
    wrong.pois.swap(0, 1);
    for (topk, want) in [(&truth, 0u64), (&wrong, 1u64)] {
        let mut recs = vec![Record::default(); ph.ops.len()];
        recs[0] = Record {
            status: 200,
            body: protocol::predict_response(topk, 1, 1),
            ..Record::default()
        };
        let one = Phase {
            ops: ph.ops[..1].to_vec(),
            expect: ph.expect[..1].to_vec(),
            units: vec![(0, 0)],
            ..ph.clone()
        };
        let (mismatches, _) = verify(
            &planner,
            &reference,
            &one,
            &recs[..1],
            &mut HashMap::new(),
            &mut Vec::new(),
        );
        if mismatches != want {
            return Err(format!(
                "verifier check: {mismatches} mismatches, want {want}"
            ));
        }
    }
    Ok(())
}

fn step_line(
    name: &str,
    ph: &Phase,
    st: &PhaseStats,
    failed: u64,
    valid: bool,
    pass: bool,
) -> String {
    jobj(&[(
        "step",
        jobj(&[
            ("phase", jstr(name)),
            ("offered_per_s", jnum(st.offered)),
            ("achieved_per_s", jnum(st.achieved)),
            ("duration_s", jnum(ph.duration.as_secs_f64())),
            ("attempted", st.attempted.to_string()),
            ("failed", failed.to_string()),
            ("p25_ms", jnum(median_of(&st.windows(), |w| w.p25))),
            ("p50_ms", jnum(st.p50())),
            ("p99_ms", jnum(st.p99())),
            ("samples", st.latencies_ms.len().to_string()),
            ("backlog_mid", st.backlog_mid.to_string()),
            ("backlog_end", st.backlog_end.to_string()),
            ("gen_late_p99_ms", jnum(st.gen_late_p99_ms)),
            ("valid", valid.to_string()),
            ("pass", pass.to_string()),
        ]),
    )])
}

/// The highest SLO-meeting rate on the ladder, refined between the last
/// passing step and the first failing one: the rate where p99 crosses the
/// SLO, interpolating log p99 against log rate. A rung-quantised answer
/// would flip a whole rung between seeds whenever p99 sits near the SLO.
fn capacity_at_slo(steps: &[(f64, f64, bool)]) -> f64 {
    let Some(i) = steps
        .iter()
        .position(|s| !s.2)
        .map_or(steps.len(), |f| f)
        .checked_sub(1)
    else {
        return 0.0;
    };
    let (rate, p99, _) = steps[i];
    match steps.get(i + 1) {
        Some(&(next_rate, next_p99, _)) if next_p99 > SLO_MS && p99 < SLO_MS => {
            let x = (SLO_MS / p99).ln() / (next_p99 / p99).ln();
            rate * (next_rate / rate).powf(x.clamp(0.0, 1.0))
        }
        _ => rate,
    }
}

/// The fixed test split sent as `/v1/predict` one at a time after the
/// timed phases, each answer verified: `(attempted, failed)`.
fn test_split_probe(addr: &str, reference: &Predictor, k: usize) -> Result<(u64, u64), String> {
    let ctx = reference.ctx();
    let items = sample_items(ctx, &split(ctx).test);
    let truth = reference.predict_batch(&items.iter().map(|i| i.query(k)).collect::<Vec<_>>());
    let mut client =
        tspn_serve::Client::connect(addr).map_err(|e| format!("quality probe: {e}"))?;
    let mut failed = 0u64;
    for (item, want) in items.iter().zip(&truth) {
        let ok = client
            .post("/v1/predict", &item.v1_body(k))
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| parse_answer(&body))
            .is_some_and(|s| s.topk == *want);
        failed += u64::from(!ok);
    }
    Ok((items.len() as u64, failed))
}

/// The untraced run of a serving workload.
pub fn run(env: &Env, flavor: Flavor) -> Result<Report, String> {
    let (cfg, ctx) = served_context();
    let num_pois = ctx.dataset.pois.len();
    let mut planner = Planner::new(flavor, &ctx, &cfg, env.seed);
    let reference = Predictor::new(cfg.clone(), ctx.clone());
    let mut report = Report::default();

    let (fleet, setup_s) = fleet::boot(BOOTS, || flavor.start(&env.serve_bin))?;
    // Warm-up: server caches and connections settle before anything is
    // timed; its answers are not checked or counted.
    let warm = planner.phase(flavor.reference_rate(), Duration::from_secs(1));
    openloop::run(fleet.entry(), &warm.ops, CONNS, false);

    let mut phases: Vec<(String, Phase, Vec<Record>)> = Vec::new();
    let refp = planner.phase(flavor.reference_rate(), env.seconds);
    let (recs, _) = openloop::run(fleet.entry(), &refp.ops, CONNS, false);
    phases.push(("reference".to_string(), refp, recs));
    // Memory after the fixed part of the run: how far the ladder climbs
    // must not change it.
    let peak_rss_mb = fleet.peak_rss_mb();

    // The load ladder: rates double from the base until a step fails;
    // each step runs for about 1000 operations (1-3 s).
    let mut rate = flavor.ladder_base();
    for _ in 0..8 {
        let secs = (1000.0 / rate).clamp(1.0, 3.0);
        let ph = planner.phase(rate, Duration::from_secs_f64(secs));
        let (recs, _) = openloop::run(fleet.entry(), &ph.ops, CONNS, false);
        let st = phase_stats(&ph, &recs);
        let (_, pass) = judge(&st, st.transport_failed);
        phases.push((format!("ladder@{rate}"), ph, recs));
        if !pass {
            break;
        }
        rate *= 2.0;
    }

    let (q_attempted, q_failed) = test_split_probe(fleet.entry(), &reference, cfg.top_k)?;
    report.attempted += q_attempted;
    report.failed += q_failed;
    let stats = fleet::get_json(fleet.backends()[0], "/v1/stats")?;
    drop(fleet);

    // Verification (after timing) doubles as the offline batched
    // prediction measurement over the same queries.
    let mut refs = HashMap::new();
    let mut offline_rates = Vec::new();
    let mut steps = Vec::new();
    let mut correct = q_failed == 0;
    let mut windows = Vec::new();
    let mut gen_late = f64::NAN;
    for (name, ph, recs) in &phases {
        let st = phase_stats(ph, recs);
        let (mismatches, _) = verify(
            &planner,
            &reference,
            ph,
            recs,
            &mut refs,
            &mut offline_rates,
        );
        let failed = st.transport_failed + mismatches;
        report.attempted += st.attempted;
        report.failed += failed;
        correct &= mismatches == 0;
        let (valid, pass) = judge(&st, failed);
        report
            .lines
            .push(step_line(name, ph, &st, failed, valid, pass));
        if name == "reference" {
            correct &= failed == 0;
            windows = st.windows();
            gen_late = st.gen_late_p99_ms;
        } else {
            steps.push((st.achieved, st.p99(), pass));
        }
    }
    report.correct = correct;

    let reference = calm_quantiles(&windows);
    let ref_items: Vec<Item> = phases[0]
        .1
        .expect
        .iter()
        .filter_map(|e| match e {
            Expect::Ranking(r) => Some(planner.item(*r)),
            Expect::Ok => None,
        })
        .collect();
    let (repeat_frac, mean_hist, mean_distinct) = history_profile(&ref_items, cfg.max_history);
    let build = stats.get("build");
    let threads = build
        .and_then(|b| b.get("threads"))
        .and_then(Value::as_usize);
    let tier = build
        .and_then(|b| b.get("kernel_tier"))
        .and_then(Value::as_str)
        .unwrap_or("unknown");
    report.lines.push(crate::descriptor(
        env,
        flavor.name(),
        &ctx,
        &[
            ("threads", threads.map_or("null".into(), |t| t.to_string())),
            ("kernel_tier", jstr(tier)),
            ("history_repeat_frac", jnum(repeat_frac)),
            ("mean_history_len", jnum(mean_hist)),
            ("mean_history_distinct_pois", jnum(mean_distinct)),
            ("reference_rate_per_s", jnum(flavor.reference_rate())),
            ("gen_late_p99_ms", jnum(gen_late)),
            ("reference_windows", windows.len().to_string()),
            (
                "windows_within_late_limit",
                windows
                    .iter()
                    .filter(|w| w.late_p99 <= GEN_LATE_LIMIT_MS)
                    .count()
                    .to_string(),
            ),
            ("calm_windows_late_p99_ms", jnum(reference.late_p99)),
            ("sessions", planner.sessions.plans.len().to_string()),
            ("vocabulary", num_pois.to_string()),
        ],
    ));

    let (train_rate, quality) = training_probe(&cfg, &ctx);
    report.e2e(
        setup_s,
        &reference,
        capacity_at_slo(&steps),
        peak_rss_mb,
        train_rate,
        util::median(&offline_rates),
        &quality,
    );
    Ok(report)
}
