//! Traced runs: the per-layer metrics. Spans are recorded only here,
//! around calls into each layer's public API (name, start, end, parent),
//! kept in memory and written out when the run ends together with each
//! span name's self time.
//!
//! Every workload reports every per-layer metric; each layer is driven
//! with the workload's own inputs:
//! * the workload's request stream, timed against the real processes
//!   with client spans off and on over identical operations (the
//!   difference is the tracing overhead), and replayed in process through
//!   a `Batcher` feeding the same `Predictor` the server builds;
//! * the HTTP, protocol and session-store layers on that stream's bytes;
//! * a router hop probe over a two-backend `--route` fleet;
//! * the set-up, training-step and evaluation layers on the city dataset
//!   with the served model configuration.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde::Value;
use tspn_core::{Predictor, Query, SpatialContext, Subject, Trainer, TspnConfig};
use tspn_data::synth::{generate_dataset, SynthConfig};
use tspn_data::Sample;
use tspn_geo::{QuadTree, QuadTreeConfig};
use tspn_serve::{http, protocol, BatchConfig, Batcher, Client, SessionConfig, SessionStore};
use tspn_tensor::{optim, pool, Tensor};

use crate::fleet::{self, Fleet};
use crate::openloop::{self, ClientSpan};
use crate::serve::{self, Flavor, Item, Planner, CONNS};
use crate::util::{self, jnum, jobj, jstr, median, quantile, rng_for};
use crate::{Env, Report};

/// Items fed to each micro-probe, and composed training steps timed.
const PROBE_ITEMS: usize = 400;
const HOP_REQUESTS: usize = 200;
const TRAIN_STEPS: usize = 24;
const SETUP_REPEATS: usize = 3;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.t0.elapsed();
    }

    fn time<R>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Spans measured elsewhere (client threads), shifted onto this
    /// tracer's clock.
    fn import(&mut self, origin: Instant, spans: &[ClientSpan], parent: usize) {
        let shift = origin.saturating_duration_since(self.t0);
        for &(name, start, end) in spans {
            self.spans.push(Span {
                name,
                start: shift + start,
                end: shift + end,
                parent: Some(parent),
            });
        }
    }

    /// Durations of every span called `name`, in ms.
    fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| util::secs_ms(s.end - s.start))
            .collect()
    }

    fn median_ms(&self, name: &str) -> f64 {
        median(&self.ms(name))
    }

    /// Total self time per span name: duration minus what its children
    /// cover (children of one span do not overlap, except client spans,
    /// which are clipped to their parent).
    fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_cover = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let start = s.start.max(parent.start);
                let end = s.end.min(parent.end);
                child_cover[p] += end.saturating_sub(start);
            }
        }
        let mut out = BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(child_cover) {
            let own = (s.end - s.start).saturating_sub(cover);
            *out.entry(s.name).or_insert(0.0) += util::secs_ms(own);
        }
        out
    }

    fn write(&self, path: &str) -> Result<(), String> {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                jobj(&[
                    ("name", jstr(s.name)),
                    ("start_us", jnum(s.start.as_secs_f64() * 1e6)),
                    ("end_us", jnum(s.end.as_secs_f64() * 1e6)),
                    ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
                ])
            })
            .collect();
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, format!("[{}]\n", spans.join(",\n")))
            .map_err(|e| format!("{path}: {e}"))
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
const LAYER_METRICS: [(&str, &str); 39] = [
    ("serve.batcher.batch_size_mean", "count"),
    ("serve.batcher.batch_size_max", "count"),
    ("serve.batcher.wait_p50_ms", "ms"),
    ("serve.batcher.wait_p99_ms", "ms"),
    ("serve.server.lane_skew", "ratio"),
    ("serve.server.shed_frac", "frac"),
    ("serve.http.parse_us", "us"),
    ("serve.http.render_us", "us"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.render_us", "us"),
    ("serve.session.create_us", "us"),
    ("serve.session.append_us", "us"),
    ("serve.session.snapshot_us", "us"),
    ("serve.router.hop_ms", "ms"),
    ("core.predictor.flush_ms", "ms"),
    ("core.predictor.query_us", "us"),
    ("core.model.history_encode_us", "us"),
    ("graph.qrp.build_us", "us"),
    ("data.synth.generate_ms", "ms"),
    ("geo.quadtree.build_ms", "ms"),
    ("imagery.render_ms", "ms"),
    ("roadnet.adjacency_ms", "ms"),
    ("core.model.init_ms", "ms"),
    ("core.model.tables_ms", "ms"),
    ("core.batch.loss_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.optim.clip_ms", "ms"),
    ("tensor.optim.step_ms", "ms"),
    ("core.trainer.sync_us", "us"),
    ("core.trainer.parallel_speedup", "ratio"),
    ("tensor.pool.hit_rate", "frac"),
    ("tensor.pool.misses", "count"),
    ("core.model.eval_tables_ms", "ms"),
    ("core.batch.predict_many_ms", "ms"),
    ("core.model.tile_hit_rate", "frac"),
    ("core.model.candidates_mean", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace.overhead_ms", "ms"),
    ("bench.trace.unattributed_ms", "ms"),
];

pub fn run(env: &Env, flavor: Flavor) -> Result<Report, String> {
    let mut tr = Tracer::new();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut m: HashMap<&'static str, f64> = HashMap::new();
    let root = tr.open("run", None);
    let rate = flavor.reference_rate();
    let replay_secs = (env.seconds / 2).max(Duration::from_secs(1));

    // The served model and context, the request stream, and the running
    // deployment.
    let (cfg, ctx) = serve::served_context();
    let mut planner = Planner::new(flavor, &ctx, &cfg, env.seed);
    let predictor = Predictor::new(cfg.clone(), ctx);
    let fleet = tr.time("setup.boot", Some(root), || flavor.start(&env.serve_bin))?;
    let warm = planner.phase(rate, Duration::from_secs(1));
    openloop::run(fleet.entry(), &warm.ops, CONNS, false);
    let (off, on) = served_phases(
        &mut tr,
        root,
        env,
        &fleet,
        &mut planner,
        &predictor,
        &mut report,
    )?;
    let p50_op_ms = off.p50_ms();
    m.insert("serve.server.lane_skew", off.lane_skew());
    m.insert("serve.server.shed_frac", off.shed_frac());
    m.insert("bench.gen_late_p99_ms", quantile(&off.late_ms, 0.99));
    m.insert("bench.trace.overhead_ms", on.p50_ms() - p50_op_ms);
    let seen: Vec<Item> = planner.issued.iter().map(|r| planner.item(*r)).collect();
    let replay = planner.phase(rate, replay_secs);
    let items: Vec<Item> = replay
        .expect
        .iter()
        .filter_map(|e| match e {
            serve::Expect::Ranking(r) => Some(planner.item(*r)),
            serve::Expect::Ok => None,
        })
        .collect();
    report.lines.push(crate::descriptor(
        env,
        &env.workload,
        predictor.ctx(),
        &[
            ("threads", tspn_tensor::parallel::num_threads().to_string()),
            ("kernel_tier", jstr(tspn_tensor::kernel_tier())),
        ],
    ));

    // In-process replay of the stream through the batcher. Streams that
    // repeat meet a warm history memo on a long-running server; warm this
    // model's the same way (batches under the sharding threshold run on
    // this thread's model, whose memo the replay's small flushes use).
    if flavor == Flavor::Repeat {
        let k = cfg.top_k;
        for chunk in items.chunks(4) {
            predictor.predict_batch(&chunk.iter().map(|i| i.query(k)).collect::<Vec<_>>());
        }
    }
    let replay = batcher_replay(
        &mut tr,
        root,
        &predictor,
        &items,
        rate,
        replay_secs,
        env.seed,
    );
    report.attempted += replay.waits_ms.len() as u64;
    m.insert("serve.batcher.wait_p50_ms", quantile(&replay.waits_ms, 0.5));
    m.insert(
        "serve.batcher.wait_p99_ms",
        quantile(&replay.waits_ms, 0.99),
    );
    let sizes = if off.batch_sizes.is_empty() {
        replay.flushes.iter().map(|f| f.len() as f64).collect()
    } else {
        off.batch_sizes.clone()
    };
    m.insert("serve.batcher.batch_size_mean", util::mean(&sizes));
    m.insert(
        "serve.batcher.batch_size_max",
        sizes.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "core.predictor.flush_ms",
        tr.median_ms("core.predictor.flush"),
    );
    m.insert("core.predictor.query_us", median(&replay.per_query_us));
    m.insert(
        "core.model.history_encode_us",
        history_encode_us(&mut tr, root, &predictor, &replay, &seen, &items),
    );

    wire_probes(&mut tr, root, &predictor, &items, flavor, &mut m);
    m.insert(
        "graph.qrp.build_us",
        qrp_probe(&mut tr, root, predictor.ctx(), &items, cfg.max_history),
    );

    // The router hop: on the workload's own routed fleet, or on a
    // two-backend fleet booted for the probe.
    let hop_fleet = match flavor {
        Flavor::SessionCold => fleet,
        Flavor::Repeat => {
            drop(fleet);
            tr.time("setup.hop_fleet", Some(root), || {
                Fleet::routed(&env.serve_bin, 2)
            })?
        }
    };
    m.insert(
        "serve.router.hop_ms",
        router_hop(&mut tr, root, &hop_fleet, &items, cfg.top_k)?,
    );
    drop(hop_fleet);

    // The request's own path: everything it waits on, layer by layer.
    let mut parts = [
        "serve.http.parse_us",
        "serve.protocol.parse_us",
        "serve.protocol.render_us",
        "serve.http.render_us",
    ]
    .iter()
    .map(|k| m[k] / 1e3)
    .sum::<f64>()
        + m["serve.batcher.wait_p50_ms"]
        + m["core.predictor.flush_ms"];
    if flavor == Flavor::SessionCold {
        parts += (m["serve.session.append_us"] + m["serve.session.snapshot_us"]) / 1e3
            + m["serve.router.hop_ms"];
    }
    m.insert("bench.trace.unattributed_ms", p50_op_ms - parts);

    setup_probes(&mut tr, root, &serve::dataset_config(), &cfg, &mut m);
    let ctx = predictor.ctx().clone();
    let split = serve::split(&ctx);
    train_probes(&mut tr, root, &cfg, &ctx, &split.train, &mut m);
    eval_probes(&mut tr, root, &predictor, &split.test, &mut m);

    tr.close(root);
    let trace_path = format!("perfbench-traces/{}-seed{}.json", env.workload, env.seed);
    tr.write(&trace_path)?;
    let self_times: Vec<(&str, String)> = tr
        .self_times_ms()
        .into_iter()
        .map(|(k, v)| (k, jnum(v)))
        .collect();
    report.lines.push(jobj(&[
        ("trace_file", jstr(&trace_path)),
        ("self_time_ms", jobj(&self_times)),
    ]));
    for (name, unit) in LAYER_METRICS {
        let value = m
            .get(name)
            .copied()
            .ok_or_else(|| format!("layer metric {name} not measured"))?;
        report.metric(name, value, unit);
    }
    report.correct &= report.failed == 0;
    Ok(report)
}

/// What the timed real-server passes of one mode (client spans off, or
/// on) showed.
#[derive(Default)]
struct Served {
    windows: Vec<serve::Window>,
    late_ms: Vec<f64>,
    batch_sizes: Vec<f64>,
    per_lane: Vec<f64>,
    sheds: f64,
}

impl Served {
    /// p50 as the reference phase reports it: over the calmer half of the
    /// windows.
    fn p50_ms(&self) -> f64 {
        serve::calm_quantiles(&self.windows).p50
    }

    fn lane_skew(&self) -> f64 {
        self.per_lane.iter().copied().fold(0.0, f64::max) / util::mean(&self.per_lane).max(1e-9)
    }

    fn shed_frac(&self) -> f64 {
        let total: f64 = self.per_lane.iter().sum();
        self.sheds / (total + self.sheds).max(1.0)
    }
}

/// The stream against the real processes at the reference rate, timed
/// with client spans off and on over identical operations: one phase, sent
/// first untimed and then replayed (see [`Planner::replay`]) four times in
/// the order off, on, on, off, so warming and drift fall evenly on both
/// modes. Every pass is verified.
fn served_phases(
    tr: &mut Tracer,
    root: usize,
    env: &Env,
    fleet: &Fleet,
    planner: &mut Planner,
    reference: &Predictor,
    report: &mut Report,
) -> Result<(Served, Served), String> {
    let secs = (env.seconds / 4).max(Duration::from_secs(1));
    let base = planner.phase(planner.flavor.reference_rate(), secs);
    let mut refs = HashMap::new();
    let mut modes = [Served::default(), Served::default()];
    for pass in [None, Some(false), Some(true), Some(true), Some(false)] {
        let ph = match pass {
            None => base.clone(),
            Some(_) => planner.replay(&base),
        };
        let traced = pass == Some(true);
        let before = lane_counts(fleet)?;
        let span = tr.open(
            if traced {
                "client.phase.traced"
            } else {
                "client.phase"
            },
            Some(root),
        );
        let origin = Instant::now();
        let (recs, spans) = openloop::run(fleet.entry(), &ph.ops, CONNS, traced);
        tr.close(span);
        tr.import(origin, &spans, span);
        let after = lane_counts(fleet)?;
        let st = serve::phase_stats(&ph, &recs);
        let (mismatches, served) =
            serve::verify(planner, reference, &ph, &recs, &mut refs, &mut Vec::new());
        report.attempted += st.attempted;
        report.failed += st.transport_failed + mismatches;
        let Some(traced) = pass else { continue };
        let mode = &mut modes[usize::from(traced)];
        // Batch ids are unique within a process, not across a fleet: key
        // them by the backend too (a session lives where its user hashes).
        let backends = fleet.backends().len();
        let mut per_batch: HashMap<(usize, u64), usize> = HashMap::new();
        for (i, s) in &served {
            let backend = match ph.expect[*i] {
                serve::Expect::Ranking(serve::ItemRef::Step { session, .. }) => {
                    tspn_serve::shard::shard_of_user(planner.sessions.plans[session].user, backends)
                }
                _ => 0,
            };
            *per_batch.entry((backend, s.batch)).or_default() += 1;
        }
        mode.windows.extend(st.windows());
        mode.late_ms.extend(&st.late_ms);
        mode.batch_sizes
            .extend(per_batch.values().map(|&n| n as f64));
        mode.per_lane.resize(after.len(), 0.0);
        for ((lane, a), b) in mode.per_lane.iter_mut().zip(&after).zip(&before) {
            *lane += (a.0 - b.0) as f64;
            mode.sheds += (a.1 - b.1) as f64;
        }
    }
    let [off, on] = modes;
    Ok((off, on))
}

/// `(served, shed)` per lane of every backend, from `/v1/stats`.
fn lane_counts(fleet: &Fleet) -> Result<Vec<(u64, u64)>, String> {
    let mut out = Vec::new();
    for addr in fleet.backends() {
        let v = fleet::get_json(addr, "/v1/stats")?;
        for lane in v
            .get("lanes")
            .and_then(Value::as_array)
            .ok_or("stats without lanes")?
        {
            let l = protocol::parse_lane_stats(lane).ok_or("unparseable lane stats")?;
            out.push((
                l.served,
                l.shed_queue_full + l.shed_expired + l.shed_not_ready,
            ));
        }
    }
    Ok(out)
}

struct Replay {
    waits_ms: Vec<f64>,
    per_query_us: Vec<f64>,
    flushes: Vec<Vec<Query>>,
}

/// Feeds the stream's queries to an in-process `Batcher` (the server's
/// default batching config) on a seeded Poisson schedule; the bench's
/// serve closure answers each flush with `Predictor::predict_batch` on
/// this thread, which owns the model, as a server lane does.
fn batcher_replay(
    tr: &mut Tracer,
    root: usize,
    predictor: &Predictor,
    items: &[Item],
    rate: f64,
    duration: Duration,
    seed: u64,
) -> Replay {
    let k = predictor.config().top_k;
    let queries: Vec<Query> = items.iter().map(|i| i.query(k)).collect();
    let mut rng = rng_for(seed, "replay");
    let schedule = util::poisson_schedule(&mut rng, rate, duration);
    let batcher = Batcher::with_ids(BatchConfig::default(), 1, 1);
    let span = tr.open("serve.batcher.replay", Some(root));
    let mut entries: Vec<(Instant, usize)> = Vec::new();
    let mut flushes = Vec::new();
    let mut flush_ms = Vec::new();
    let submits = std::thread::scope(|scope| {
        let submitter = {
            let batcher = batcher.clone();
            let queries = &queries;
            let schedule = &schedule;
            scope.spawn(move || {
                let start = Instant::now();
                let mut submits = Vec::with_capacity(schedule.len());
                let mut waiting: Vec<mpsc::Receiver<tspn_serve::Verdict>> = Vec::new();
                for (i, due) in schedule.iter().enumerate() {
                    if let Some(d) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(d);
                    }
                    submits.push(Instant::now());
                    let q = queries[i % queries.len()].clone();
                    waiting.push(batcher.try_submit(q, None).expect("replay queue has room"));
                }
                for rx in waiting {
                    let _ = rx.recv();
                }
                batcher.close();
                submits
            })
        };
        batcher.run_loop(|batch| {
            entries.push((Instant::now(), batch.len()));
            let id = tr.open("core.predictor.flush", Some(span));
            let answers = predictor.predict_batch(batch);
            tr.close(id);
            flush_ms.push(util::secs_ms(tr.spans[id].end - tr.spans[id].start));
            flushes.push(batch.to_vec());
            (answers, 1)
        });
        submitter.join().expect("replay submitter")
    });
    tr.close(span);
    // Flushes take queries in submission order, so flush `f` holds the
    // next `n` submissions.
    let mut waits_ms = Vec::with_capacity(submits.len());
    let mut next = 0usize;
    for &(entry, n) in &entries {
        for s in &submits[next..next + n] {
            waits_ms.push(util::secs_ms(entry.saturating_duration_since(*s)));
        }
        next += n;
    }
    let per_query_us = flushes
        .iter()
        .zip(&flush_ms)
        .map(|(f, ms)| ms * 1e3 / f.len() as f64)
        .collect();
    Replay {
        waits_ms,
        per_query_us,
        flushes,
    }
}

/// Per-query history-encoding cost as the workload meets it: each replay
/// flush run back to back with the history memo (and QR-P cache) cleared
/// and then warm gives the per-query cost of a miss; it is weighted by
/// the share of replayed requests whose history is not among the 4096
/// requests before it (a memo miss). Timing cold and warm back to back
/// keeps CPU-cache effects of the replay's idle gaps out of the
/// difference.
fn history_encode_us(
    tr: &mut Tracer,
    root: usize,
    predictor: &Predictor,
    replay: &Replay,
    seen: &[Item],
    items: &[Item],
) -> f64 {
    let mut diffs = Vec::new();
    for queries in replay.flushes.iter().take(PROBE_ITEMS) {
        predictor.model().clear_cache();
        let t0 = Instant::now();
        tr.time("core.model.history_cold", Some(root), || {
            std::hint::black_box(predictor.predict_batch(queries))
        });
        let cold_ms = util::secs_ms(t0.elapsed());
        let t0 = Instant::now();
        tr.time("core.predictor.flush_warm", Some(root), || {
            std::hint::black_box(predictor.predict_batch(queries))
        });
        let warm_ms = util::secs_ms(t0.elapsed());
        diffs.push((cold_ms - warm_ms) * 1e3 / queries.len() as f64);
    }
    // The memo state the replayed stream meets: everything the server
    // answered before it, then the replay itself (which cycles `items`).
    let stream: Vec<Item> = seen
        .iter()
        .chain(items.iter().cycle().take(replay.waits_ms.len()))
        .cloned()
        .collect();
    let hits = serve::history_repeats(&stream, predictor.config().max_history);
    let replayed = &hits[seen.len()..];
    let misses = replayed.iter().filter(|&&hit| !hit).count();
    median(&diffs) * misses as f64 / replayed.len().max(1) as f64
}

/// The HTTP, protocol and session-store layers on the stream's bytes.
fn wire_probes(
    tr: &mut Tracer,
    root: usize,
    predictor: &Predictor,
    items: &[Item],
    flavor: Flavor,
    m: &mut HashMap<&'static str, f64>,
) {
    let k = predictor.config().top_k;
    let probe = &items[..items.len().min(PROBE_ITEMS)];
    let answers = predictor.predict_batch(&probe.iter().map(|i| i.query(k)).collect::<Vec<_>>());
    let sessions = flavor == Flavor::SessionCold;
    let store = SessionStore::new(SessionConfig::default());
    for (item, topk) in probe.iter().zip(&answers) {
        let (last, earlier) = item.checkins.split_last().expect("items are non-empty");
        let body = if sessions {
            protocol::session_append_body(std::slice::from_ref(last))
        } else {
            item.v1_body(k)
        };
        let path = if sessions {
            "/v1/sessions/s1/checkins"
        } else {
            "/v1/predict"
        };
        let mut wire = openloop::request_bytes("POST", path, &body);
        let _ = tr.time("serve.http.parse", Some(root), || {
            std::hint::black_box(http::try_parse_request(&mut wire, 64 * 1024))
        });
        if sessions {
            let _ = tr.time("serve.protocol.parse", Some(root), || {
                std::hint::black_box(protocol::parse_session_append(body.as_bytes()))
            });
        } else {
            let _ = tr.time("serve.protocol.parse", Some(root), || {
                std::hint::black_box(protocol::parse_v1_predict(body.as_bytes()))
            });
        }
        let rendered = tr.time("serve.protocol.render", Some(root), || {
            protocol::predict_response(topk, 1, 1)
        });
        tr.time("serve.http.render", Some(root), || {
            std::hint::black_box(http::render_response(200, &rendered, true, None))
        });
        let created = tr.time("serve.session.create", Some(root), || {
            store.create(item.user, earlier)
        });
        if let Ok((id, _)) = created {
            let _ = tr.time("serve.session.append", Some(root), || {
                std::hint::black_box(store.append(id, std::slice::from_ref(last)))
            });
            let _ = tr.time("serve.session.snapshot", Some(root), || {
                std::hint::black_box(store.snapshot(id))
            });
            let _ = store.delete(id);
        }
    }
    for (metric, span) in [
        ("serve.http.parse_us", "serve.http.parse"),
        ("serve.http.render_us", "serve.http.render"),
        ("serve.protocol.parse_us", "serve.protocol.parse"),
        ("serve.protocol.render_us", "serve.protocol.render"),
        ("serve.session.create_us", "serve.session.create"),
        ("serve.session.append_us", "serve.session.append"),
        ("serve.session.snapshot_us", "serve.session.snapshot"),
    ] {
        m.insert(metric, tr.median_ms(span) * 1e3);
    }
}

/// `build_qrp` on each request's encoded history against the context.
fn qrp_probe(
    tr: &mut Tracer,
    root: usize,
    ctx: &SpatialContext,
    items: &[Item],
    max_history: usize,
) -> f64 {
    for item in items.iter().take(PROBE_ITEMS) {
        let history = item.history(max_history);
        if history.is_empty() {
            continue;
        }
        tr.time("graph.qrp.build", Some(root), || {
            std::hint::black_box(tspn_graph::build_qrp(
                &ctx.tree,
                &ctx.road_adjacency,
                &history,
                &ctx.dataset,
                tspn_graph::QrpOptions::default(),
            ))
        });
    }
    tr.median_ms("graph.qrp.build") * 1e3
}

/// Median routed request minus the same request sent straight to the
/// backend that owns it (by the fleet's content hash), interleaved.
fn router_hop(
    tr: &mut Tracer,
    root: usize,
    fleet: &Fleet,
    items: &[Item],
    k: usize,
) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("router hop probe: {e}");
    let mut router = Client::connect(fleet.entry()).map_err(io)?;
    let backends = fleet.backends();
    let mut direct: Vec<Client> = backends
        .iter()
        .map(|a| Client::connect(a))
        .collect::<Result<_, _>>()
        .map_err(io)?;
    for item in items.iter().take(HOP_REQUESTS) {
        let body = item.v1_body(k);
        let owner = tspn_serve::shard::shard_of_content(item.user, &item.checkins, backends.len());
        let (routed, _) = tr
            .time("serve.router.routed", Some(root), || {
                router.post("/v1/predict", &body)
            })
            .map_err(io)?;
        let (straight, _) = tr
            .time("serve.router.direct", Some(root), || {
                direct[owner].post("/v1/predict", &body)
            })
            .map_err(io)?;
        if routed != 200 || straight != 200 {
            return Err("router hop probe: a predict failed".into());
        }
    }
    Ok(tr.median_ms("serve.router.routed") - tr.median_ms("serve.router.direct"))
}

/// The set-up layers, on the workload's dataset configuration.
fn setup_probes(
    tr: &mut Tracer,
    root: usize,
    dcfg: &SynthConfig,
    cfg: &TspnConfig,
    m: &mut HashMap<&'static str, f64>,
) {
    let tspn_core::Partition::QuadTree {
        max_depth,
        leaf_capacity,
    } = cfg.partition
    else {
        unreachable!("the served configuration partitions with a quad-tree")
    };
    for _ in 0..SETUP_REPEATS {
        let (ds, world) = tr.time("data.synth.generate", Some(root), || {
            generate_dataset(dcfg.clone())
        });
        let locs = ds.poi_locations();
        let tree = tr.time("geo.quadtree.build", Some(root), || {
            QuadTree::build(
                ds.region,
                &locs,
                QuadTreeConfig {
                    max_depth,
                    leaf_capacity,
                },
            )
        });
        tr.time("imagery.render", Some(root), || {
            std::hint::black_box(tspn_imagery::ImageryDataset::render_all_nodes(
                &world,
                ds.region,
                &tree,
                cfg.image_size,
            ))
        });
        tr.time("roadnet.adjacency", Some(root), || {
            let roads =
                tspn_roadnet::generate_roads(&world, tspn_roadnet::RoadGenConfig::default());
            std::hint::black_box(tspn_roadnet::road_tile_adjacency(&roads, &tree, &ds.region))
        });
        let ctx = SpatialContext::build(ds, world, cfg);
        tr.time("core.model.init", Some(root), || {
            std::hint::black_box(Trainer::new(cfg.clone(), ctx))
        });
    }
    for (metric, span) in [
        ("data.synth.generate_ms", "data.synth.generate"),
        ("geo.quadtree.build_ms", "geo.quadtree.build"),
        ("imagery.render_ms", "imagery.render"),
        ("roadnet.adjacency_ms", "roadnet.adjacency"),
        ("core.model.init_ms", "core.model.init"),
    ] {
        m.insert(metric, tr.median_ms(span));
    }
}

/// One training step composed from the public calls on this thread,
/// then the same steps inside `fit_epochs` at the default thread count.
fn train_probes(
    tr: &mut Tracer,
    root: usize,
    cfg: &TspnConfig,
    ctx: &SpatialContext,
    train: &[Sample],
    m: &mut HashMap<&'static str, f64>,
) {
    let mut trainer = Trainer::new(cfg.clone(), ctx.clone());
    let batches: Vec<&[Sample]> = train.chunks(cfg.batch_size).take(TRAIN_STEPS).collect();
    let params = trainer.model.params();
    let mut adam = optim::Adam::new(cfg.lr);
    for batch in &batches {
        let step = tr.open("core.trainer.step", Some(root));
        optim::zero_grad(&params);
        let tables = tr.time("core.model.tables", Some(step), || {
            trainer.model.batch_tables(&trainer.ctx)
        });
        let loss = tr.time("core.batch.loss", Some(step), || {
            trainer
                .model
                .loss_batch(&trainer.ctx, batch, &tables)
                .sum_all()
                .scale(1.0 / batch.len() as f32)
        });
        tr.time("tensor.backward", Some(step), || loss.backward());
        let scale = tr.time("tensor.optim.clip", Some(step), || {
            optim::clip_scale(optim::grad_global_norm(&params), 5.0)
        });
        tr.time("tensor.optim.step", Some(step), || {
            adam.step_scaled(&params, scale, |_| {})
        });
        tr.close(step);
    }
    trainer.mark_model_dirty();
    for _ in 0..TRAIN_STEPS {
        tr.time("core.trainer.sync", Some(root), || {
            std::hint::black_box(trainer.bench_sync_roundtrip())
        });
    }
    let subset: Vec<Sample> = batches.iter().flat_map(|b| b.iter().copied()).collect();
    // One warm-up epoch fills the pool and the replica caches; the timed
    // epoch then shows steady-state recycling.
    trainer.fit_epochs(&subset, 1);
    pool::reset_stats();
    tr.time("core.trainer.fit_epoch", Some(root), || {
        trainer.fit_epochs(&subset, 1)
    });
    let stats = pool::stats();
    let composed = util::mean(&tr.ms("core.trainer.step"));
    let fitted = tr.median_ms("core.trainer.fit_epoch") / batches.len() as f64;
    for (metric, span) in [
        ("core.model.tables_ms", "core.model.tables"),
        ("core.batch.loss_ms", "core.batch.loss"),
        ("tensor.backward_ms", "tensor.backward"),
        ("tensor.optim.clip_ms", "tensor.optim.clip"),
        ("tensor.optim.step_ms", "tensor.optim.step"),
    ] {
        m.insert(metric, tr.median_ms(span));
    }
    m.insert(
        "core.trainer.sync_us",
        tr.median_ms("core.trainer.sync") * 1e3,
    );
    m.insert("core.trainer.parallel_speedup", composed / fitted);
    m.insert("tensor.pool.hit_rate", stats.hit_rate());
    m.insert("tensor.pool.misses", stats.misses as f64);
}

/// Evaluation layers on the test split with the workload's model.
fn eval_probes(
    tr: &mut Tracer,
    root: usize,
    predictor: &Predictor,
    test: &[Sample],
    m: &mut HashMap<&'static str, f64>,
) {
    let model = predictor.model();
    let ctx = predictor.ctx();
    let k = predictor.config().top_k;
    let mut tables = None;
    for _ in 0..5 {
        tables = Some(tr.time("core.model.eval_tables", Some(root), || {
            Tensor::no_grad(|| model.batch_tables(ctx))
        }));
    }
    let tables = tables.expect("tables built");
    model.clear_cache();
    let mut candidates = Vec::new();
    let mut hits = 0usize;
    for chunk in test.chunks(64) {
        let pairs: Vec<(Subject, usize)> =
            chunk.iter().map(|&s| (Subject::Indexed(s), k)).collect();
        let preds = tr.time("core.batch.predict_many", Some(root), || {
            model.predict_many(ctx, &pairs, &tables)
        });
        for (s, p) in chunk.iter().zip(&preds) {
            candidates.push(p.candidate_count as f64);
            let leaf = ctx.poi_leaf_rank(ctx.dataset.sample_target(s).poi);
            hits += usize::from(p.tile_rank_of(leaf).is_some_and(|r| r < k));
        }
    }
    m.insert(
        "core.model.eval_tables_ms",
        tr.median_ms("core.model.eval_tables"),
    );
    m.insert(
        "core.batch.predict_many_ms",
        tr.median_ms("core.batch.predict_many"),
    );
    m.insert(
        "core.model.tile_hit_rate",
        hits as f64 / test.len().max(1) as f64,
    );
    m.insert("core.model.candidates_mean", util::mean(&candidates));
}
