//! `tspn-serve` — the long-lived next-POI serving process.
//!
//! ```text
//! tspn-serve --port 7878 --preset nyc --scale 0.15 \
//!            [--checkpoint model.json] [--dump-checkpoint boot.json] \
//!            [--max-batch 32] [--max-queue-depth 1024] \
//!            [--session-ttl-ms 900000] \
//!            [--lanes 2] [--shard-index 0 --shard-count 2]
//! tspn-serve --port 7878 --route 127.0.0.1:7900,127.0.0.1:7901
//! ```
//!
//! The second form is **router mode**: no model is built at all — the
//! process is a thin shard-hash proxy over the listed backends (see
//! [`tspn_serve::start_router`]). Backends of a routed fleet are started
//! with matching `--shard-index i --shard-count n` so their session-id
//! spaces tile and their `/v1/topology` answers say `"backend"`.
//!
//! The synthetic presets are deterministic, so the server regenerates the
//! exact city a checkpoint was trained on from `(preset, scale)`: the
//! POIs, imagery and road network. It skips the check-in simulation,
//! because every served history arrives with its request. `--days` is
//! still accepted and validated, but it no longer changes what a backend
//! serves. `--dump-checkpoint` writes the booted parameters (after an
//! optional `--checkpoint` load) in `model.save` format — handy for
//! smoke-testing `/admin/reload` without a separate training run.
//!
//! Micro-batching is work-conserving (an idle lane flushes at once, a busy
//! one takes whatever queued during its last forward), so its one knob is
//! the cap: `--max-batch` (default 32) queries per batched forward.
//! `--max-queue-depth` (default 1024) bounds how many requests may wait
//! for a flush before a lane sheds with a typed `429 overloaded`, and
//! `--session-ttl-ms` (default 15 min) is the idle time after which a v1
//! session expires. `--lanes` (default 1) splits the batcher into that
//! many shard-partitioned lanes, each with its own model replica,
//! admission queue, supervisor, and session-store partition. Every count
//! and duration flag must be a positive integer; zero or garbage is a
//! usage error (exit 2).
//!
//! A server runs one multiplexer thread, which owns every socket and
//! answers non-prediction routes inline, plus one thread per lane, which
//! runs the batched forward and sends each answer back to its connection.
//! The compute pool's `TSPN_NUM_THREADS - 1` workers start at boot,
//! because the context build renders its imagery on them.
//! A router runs the multiplexer alone, which also forwards to the
//! backends, so an idle router process runs two threads.
//!
//! The flags are the only configuration, except for fault injection: the
//! `TSPN_SERVE_FAULT_*` knobs (see [`tspn_serve::ChaosConfig`]) arm the
//! chaos layer for drills.
//!
//! Shutdown: SIGTERM/SIGINT or `POST /admin/shutdown`; either way queued
//! predictions flush before the process exits 0.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tspn_core::{SpatialContext, TspnConfig};
use tspn_data::synth::{generate_city, SynthConfig};
use tspn_serve::{server, BatchConfig, ChaosConfig, ServerConfig, SessionConfig};

/// Set by the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

struct Args {
    port: u16,
    preset: String,
    scale: f64,
    checkpoint: Option<String>,
    dump_checkpoint: Option<String>,
    batch: BatchConfig,
    session: SessionConfig,
    lanes: usize,
    shard_index: usize,
    shard_count: usize,
    route: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tspn-serve [--port N] [--preset nyc|tky|california|florida] [--scale F] \
         [--days N] [--checkpoint FILE] [--dump-checkpoint FILE] [--max-batch N] \
         [--max-queue-depth N] [--session-ttl-ms N] [--lanes N] \
         [--shard-index N --shard-count N] [--route ADDR,ADDR,…]"
    );
    std::process::exit(2);
}

/// Parses a flag value, exiting with the usage text on garbage.
fn parse<T: std::str::FromStr>(v: &str) -> T {
    v.parse().unwrap_or_else(|_| usage())
}

/// Parses a count or duration flag: zero is a usage error too.
fn positive(v: &str) -> usize {
    Some(parse(v))
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        port: 7878,
        preset: "nyc".into(),
        scale: 0.15,
        checkpoint: None,
        dump_checkpoint: None,
        batch: BatchConfig::default(),
        session: SessionConfig::default(),
        lanes: 1,
        shard_index: 0,
        shard_count: 1,
        route: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        i += 1;
        let Some(v) = argv.get(i) else { usage() };
        match flag {
            "--port" => args.port = parse(v),
            "--preset" => args.preset = v.clone(),
            "--scale" => args.scale = parse(v),
            // Validated for old invocations; a backend simulates no
            // check-ins, so the value is unused.
            "--days" => {
                positive(v);
            }
            "--checkpoint" => args.checkpoint = Some(v.clone()),
            "--dump-checkpoint" => args.dump_checkpoint = Some(v.clone()),
            "--max-batch" => args.batch.max_batch = positive(v),
            "--max-queue-depth" => args.batch.queue_cap = positive(v),
            "--session-ttl-ms" => {
                args.session.ttl = Duration::from_millis(positive(v) as u64);
            }
            "--lanes" => args.lanes = positive(v),
            "--shard-index" => args.shard_index = parse(v),
            "--shard-count" => args.shard_count = positive(v),
            "--route" => args.route = Some(v.clone()),
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn preset_config(name: &str, scale: f64) -> SynthConfig {
    tspn_serve::preset_dataset_config(name, scale).unwrap_or_else(|| {
        eprintln!("unknown preset {name:?}");
        usage()
    })
}

/// The serving model configuration, shared with `serve_bench` (see
/// [`tspn_serve::default_model_config`]).
fn model_config() -> TspnConfig {
    tspn_serve::default_model_config()
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the POSIX libc symbol with the declared
    // signature; the handler only performs an atomic store, which is
    // async-signal-safe, and registration happens once before any thread
    // that could receive these signals does meaningful work.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Router mode: no dataset, no model — just the shard-hash proxy.
fn run_router(port: u16, route: &str) -> ! {
    let backends: Vec<String> = route
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    install_signal_handlers();
    let cfg = tspn_serve::RouterConfig {
        addr: format!("127.0.0.1:{port}"),
        backends: backends.clone(),
    };
    let handle = match tspn_serve::start_router(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("tspn-serve: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "tspn-serve: router over {} backend(s): {}",
        backends.len(),
        backends.join(", ")
    );
    println!("tspn-serve: listening on {}", handle.local_addr());
    while !SHUTDOWN.load(Ordering::Acquire) && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("tspn-serve: shutting down…");
    handle.shutdown();
    handle.join();
    eprintln!("tspn-serve: clean shutdown");
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if let Some(route) = &args.route {
        run_router(args.port, route);
    }
    let dcfg = preset_config(&args.preset, args.scale);
    let model_cfg = model_config();

    eprintln!(
        "tspn-serve: generating city {} (scale {})…",
        dcfg.name, args.scale
    );
    let t0 = Instant::now();
    let (city, world) = generate_city(dcfg);
    let ctx = SpatialContext::build(city, world, &model_cfg);
    eprintln!(
        "tspn-serve: context ready in {:.1} ms ({} POIs, {} leaf tiles)",
        t0.elapsed().as_secs_f64() * 1e3,
        ctx.dataset.pois.len(),
        ctx.num_leaves()
    );

    if let Some(path) = &args.dump_checkpoint {
        // A fresh model from the same config seed and context is bitwise
        // the model the server boots with; after `--checkpoint` the boot
        // parameters are the file itself.
        let outcome = match &args.checkpoint {
            Some(src) => std::fs::copy(src, path)
                .map(|_| ())
                .map_err(|e| format!("cannot copy {src:?} to {path:?}: {e}")),
            None => {
                let ckpt = tspn_core::TspnRa::new(model_cfg.clone(), &ctx).save();
                serde_json::to_string(&ckpt)
                    .map_err(|e| format!("serialise: {e}"))
                    .and_then(|json| std::fs::write(path, json).map_err(|e| format!("write: {e}")))
            }
        };
        match outcome {
            Ok(()) => eprintln!("tspn-serve: wrote boot checkpoint to {path}"),
            Err(e) => {
                eprintln!("tspn-serve: --dump-checkpoint failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let initial = args.checkpoint.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("tspn-serve: cannot read checkpoint {path:?}: {e}");
            std::process::exit(1);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("tspn-serve: cannot parse checkpoint {path:?}: {e}");
            std::process::exit(1);
        })
    });

    let chaos = ChaosConfig::resolve(|key| std::env::var(key).ok());
    eprintln!(
        "tspn-serve: micro-batcher max_batch={} queue_cap={}; sessions ttl={:?}",
        args.batch.max_batch, args.batch.queue_cap, args.session.ttl
    );
    if chaos.is_active() {
        eprintln!("tspn-serve: CHAOS ACTIVE: {chaos:?}");
    }
    if args.shard_index >= args.shard_count {
        eprintln!(
            "tspn-serve: --shard-index {} out of range for --shard-count {}",
            args.shard_index, args.shard_count
        );
        std::process::exit(2);
    }
    eprintln!(
        "tspn-serve: {} lane(s), shard {}/{}",
        args.lanes, args.shard_index, args.shard_count
    );
    let server_cfg = ServerConfig {
        addr: format!("127.0.0.1:{}", args.port),
        batch: args.batch,
        session: args.session,
        chaos,
        lanes: args.lanes,
        shard_index: args.shard_index,
        shard_count: args.shard_count,
    };

    install_signal_handlers();
    let handle = match server::start(server_cfg, model_cfg, ctx, initial) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("tspn-serve: {e}");
            std::process::exit(1);
        }
    };

    println!("tspn-serve: listening on {}", handle.local_addr());

    while !SHUTDOWN.load(Ordering::Acquire) && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("tspn-serve: shutting down…");
    handle.shutdown();
    handle.join();
    eprintln!("tspn-serve: clean shutdown");
}
