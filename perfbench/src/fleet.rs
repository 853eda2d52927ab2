//! The program under test as child processes: `tspn-serve` backends,
//! optionally behind a `--route` router. Every process is killed and
//! reaped when its handle drops, so a panicking run leaves nothing behind.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use tspn_serve::Client;

/// The served dataset: the `nyc` preset at scale 1 over 80 days.
pub const PRESET: &str = "nyc";
pub const SCALE: f64 = 1.0;
pub const DAYS: usize = 80;

struct Proc {
    child: Child,
    /// Held open so a late line on the child's stdout never hits a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn(bin: &str, args: &[String]) -> Result<Proc, String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {bin}: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().ok_or("child stdout missing")?);
    let mut line = String::new();
    let read = stdout.read_line(&mut line);
    let addr = line
        .trim()
        .strip_prefix("tspn-serve: listening on ")
        .map(str::to_string);
    match (read, addr) {
        (Ok(_), Some(addr)) => Ok(Proc {
            child,
            _stdout: stdout,
            addr,
        }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!(
                "{bin} {args:?} did not report a listening address: {line:?}"
            ))
        }
    }
}

/// Polls `GET /healthz` until the process reports `"ready":true`.
fn wait_ready(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let ready = Client::connect(addr)
            .and_then(|mut c| c.get("/healthz"))
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, text)| serde_json::from_str::<Value>(&text).ok())
            .and_then(|v| v.get("ready").and_then(Value::as_bool))
            == Some(true);
        if ready {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never reported ready"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn backend_args(extra: &[&str]) -> Vec<String> {
    let scale = SCALE.to_string();
    let days = DAYS.to_string();
    let mut args: Vec<String> = [
        "--port", "0", "--preset", PRESET, "--scale", &scale, "--days", &days,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// A running deployment of the program under test.
pub struct Fleet {
    /// Backends first, then the router when there is one.
    procs: Vec<Proc>,
    routed: bool,
}

impl Fleet {
    /// One backend with `lanes` batcher lanes.
    pub fn single(bin: &str, lanes: usize) -> Result<Fleet, String> {
        let p = spawn(bin, &backend_args(&["--lanes", &lanes.to_string()]))?;
        wait_ready(&p.addr)?;
        Ok(Fleet {
            procs: vec![p],
            routed: false,
        })
    }

    /// `shards` single-lane backends behind a `--route` router.
    pub fn routed(bin: &str, shards: usize) -> Result<Fleet, String> {
        let mut procs = Vec::with_capacity(shards + 1);
        for i in 0..shards {
            let (index, count) = (i.to_string(), shards.to_string());
            procs.push(spawn(
                bin,
                &backend_args(&["--shard-index", &index, "--shard-count", &count]),
            )?);
        }
        for p in &procs {
            wait_ready(&p.addr)?;
        }
        let route: Vec<&str> = procs.iter().map(|p| p.addr.as_str()).collect();
        let router = spawn(
            bin,
            &["--port", "0", "--route", &route.join(",")]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )?;
        wait_ready(&router.addr)?;
        procs.push(router);
        Ok(Fleet {
            procs,
            routed: true,
        })
    }

    /// Where clients connect.
    pub fn entry(&self) -> &str {
        &self.procs[self.procs.len() - 1].addr
    }

    /// The model-serving processes (the router excluded).
    pub fn backends(&self) -> Vec<&str> {
        let n = self.procs.len() - usize::from(self.routed);
        self.procs[..n].iter().map(|p| p.addr.as_str()).collect()
    }

    /// Summed peak resident set of every process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.procs
            .iter()
            .filter_map(|p| crate::util::peak_rss_mb(p.child.id()))
            .sum()
    }
}

/// Starts a deployment `boots` times and keeps the last: the set-up time
/// is the median spawn-to-ready time over those boots.
pub fn boot(
    boots: usize,
    start: impl Fn() -> Result<Fleet, String>,
) -> Result<(Fleet, f64), String> {
    let mut times = Vec::with_capacity(boots);
    let mut last = None;
    for _ in 0..boots.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let fleet = start()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(fleet);
    }
    let fleet = last.ok_or("no boot ran")?;
    Ok((fleet, crate::util::median(&times)))
}

/// `GET` a JSON document from one process.
pub fn get_json(addr: &str, path: &str) -> Result<Value, String> {
    let (status, text) = Client::connect(addr)
        .and_then(|mut c| c.get(path))
        .map_err(|e| format!("GET {addr}{path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {addr}{path}: status {status}"));
    }
    serde_json::from_str(&text).map_err(|e| format!("GET {addr}{path}: {e}"))
}
