//! The newline-delimited JSON front door of the run service.
//!
//! `c9-coordinator --serve ADDR` listens on a plain TCP socket; every
//! connection speaks one JSON object per line in each direction. A client
//! submits runs, polls them, preempts and resumes them, fetches their
//! results, and shuts the service down — the full [`ServiceHandle`] surface
//! over a protocol `nc` and twenty lines of any scripting language can
//! speak. JSON is rendered and parsed by [`c9_trace::json::Json`]; no
//! serialization dependency is involved.
//!
//! # Protocol
//!
//! Requests: `{"cmd": NAME, ...}`. Responses always carry `"ok"`; errors
//! carry `"error"` instead of the payload:
//!
//! ```text
//! → {"cmd":"submit","target":"memcached-sim","max_paths":5000}
//! ← {"ok":true,"run":1}
//! → {"cmd":"status","run":1}
//! ← {"ok":true,"run":{"id":1,"name":"memcached-sim","state":"running",...}}
//! → {"cmd":"list"}
//! ← {"ok":true,"runs":[{"id":1,...}]}
//! → {"cmd":"preempt","run":1}
//! ← {"ok":true}
//! → {"cmd":"resume","run":1}
//! ← {"ok":true}
//! → {"cmd":"cancel","run":1}
//! ← {"ok":true}
//! → {"cmd":"results","run":1}
//! ← {"ok":true,"results":{"paths_completed":5000,"bugs":[...],...}}
//! → {"cmd":"shutdown"}
//! ← {"ok":true}
//! ```
//!
//! What `submit` accepts beyond `target` is decided by the binary hosting
//! the service (the [`SubmitFn`] it installs); `c9-coordinator` understands
//! the named workloads of `c9-targets` plus `time_limit_secs`, `max_paths`,
//! `coverage_target` and `generate_tests`, and answers any other key, or a
//! value of the wrong type, with an error naming these.

use crate::service::{RunInfo, RunSubmission, ServiceHandle};
use c9_trace::info;
use c9_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Translates the JSON payload of a `submit` command into a run. Installed
/// by the binary, which knows how to resolve workload names into programs —
/// the core crate does not.
pub type SubmitFn = Box<dyn Fn(&Json) -> Result<RunSubmission, String> + Send + Sync>;

fn err(message: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(message.into())),
    ])
}

fn ok(mut fields: Vec<(String, Json)>) -> Json {
    let mut obj = vec![("ok".into(), Json::Bool(true))];
    obj.append(&mut fields);
    Json::Obj(obj)
}

fn info_json(info: &RunInfo) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::from_u64(info.id.0)),
        ("name".into(), Json::Str(info.name.clone())),
        ("state".into(), Json::Str(info.state.to_string())),
        ("cancelled".into(), Json::Bool(info.cancelled)),
        (
            "paths_completed".into(),
            Json::from_u64(info.paths_completed),
        ),
        ("coverage".into(), Json::Num(info.coverage)),
        ("bugs_found".into(), Json::from_u64(info.bugs_found)),
        ("elapsed_secs".into(), Json::Num(info.elapsed.as_secs_f64())),
    ])
}

fn run_arg(cmd: &Json) -> Result<c9_net::RunId, Json> {
    cmd.get("run")
        .and_then(Json::as_u64)
        .filter(|id| *id != 0)
        .map(c9_net::RunId)
        .ok_or_else(|| err("missing or invalid \"run\""))
}

/// Executes one front-door command against the service. Pure with respect
/// to the connection: parsing and I/O live in [`serve`], so unit tests
/// drive the protocol without sockets.
pub fn handle_command(cmd: &Json, handle: &ServiceHandle, submit: &SubmitFn) -> Json {
    let name = match cmd.get("cmd").and_then(Json::as_str) {
        Some(name) => name,
        None => return err("missing \"cmd\""),
    };
    match name {
        "submit" => match submit(cmd) {
            Ok(submission) => match handle.submit(submission) {
                Some(run) => ok(vec![("run".into(), Json::from_u64(run.0))]),
                None => err("service is shutting down"),
            },
            Err(e) => err(e),
        },
        "list" => ok(vec![(
            "runs".into(),
            Json::Arr(handle.list().iter().map(info_json).collect()),
        )]),
        "status" => match run_arg(cmd) {
            Ok(run) => match handle.status(run) {
                Some(info) => ok(vec![("run".into(), info_json(&info))]),
                None => err("unknown run"),
            },
            Err(e) => e,
        },
        "cancel" => match run_arg(cmd) {
            Ok(run) if handle.cancel(run) => ok(vec![]),
            Ok(_) => err("run is not cancellable"),
            Err(e) => e,
        },
        "preempt" => match run_arg(cmd) {
            Ok(run) if handle.preempt(run) => ok(vec![]),
            Ok(_) => err("run is not running"),
            Err(e) => e,
        },
        "resume" => match run_arg(cmd) {
            Ok(run) if handle.resume(run) => ok(vec![]),
            Ok(_) => err("run is not preempted"),
            Err(e) => e,
        },
        "results" => match run_arg(cmd) {
            Ok(run) => match handle.results(run) {
                Some(result) => ok(vec![(
                    "results".into(),
                    Json::Obj(vec![
                        (
                            "paths_completed".into(),
                            Json::from_u64(result.summary.paths_completed()),
                        ),
                        (
                            "bugs_found".into(),
                            Json::from_u64(result.summary.bugs_found),
                        ),
                        (
                            "coverage".into(),
                            Json::Num(result.summary.coverage_ratio()),
                        ),
                        (
                            "elapsed_secs".into(),
                            Json::Num(result.summary.elapsed.as_secs_f64()),
                        ),
                        (
                            "goal_reached".into(),
                            Json::Bool(result.summary.goal_reached),
                        ),
                        ("exhausted".into(), Json::Bool(result.summary.exhausted)),
                        (
                            "test_cases".into(),
                            Json::from_u64(result.test_cases.len() as u64),
                        ),
                        (
                            "bugs".into(),
                            Json::Arr(
                                result
                                    .bugs
                                    .iter()
                                    .map(|b| Json::Str(format!("{:?}", b.termination)))
                                    .collect(),
                            ),
                        ),
                    ]),
                )]),
                None => err("run has no results (not finished?)"),
            },
            Err(e) => e,
        },
        "shutdown" => {
            handle.shutdown();
            ok(vec![])
        }
        other => err(format!("unknown command {other:?}")),
    }
}

fn serve_connection(stream: TcpStream, handle: ServiceHandle, submit: &SubmitFn) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Json::parse(&line) {
            Ok(cmd) => handle_command(&cmd, &handle, submit),
            Err(e) => err(format!("bad JSON: {e}")),
        };
        let shutdown = matches!(
            Json::parse(&line)
                .ok()
                .as_ref()
                .and_then(|c| c.get("cmd"))
                .and_then(Json::as_str),
            Some("shutdown")
        ) && response.get("ok") == Some(&Json::Bool(true));
        if writeln!(writer, "{}", response.render()).is_err() {
            break;
        }
        if shutdown {
            break;
        }
    }
    info!("front door: connection from {peer} closed");
}

/// Concurrent front-door connections admitted at most. Each connection
/// holds a thread for its lifetime; without a bound, a client opening
/// sockets in a loop grows the daemon's thread count without limit.
pub const MAX_CONNECTIONS: usize = 64;

/// One reserved connection slot, released when dropped — also when the
/// connection thread unwinds from a panic, so a failing command can never
/// leak a slot and lock the front door once [`MAX_CONNECTIONS`] leaked.
struct Slot(Arc<AtomicUsize>);

impl Slot {
    /// Reserves a slot, or `None` at the cap. The increment-then-check keeps
    /// concurrent accepts from racing past it; a refused reservation is
    /// undone by the guard's own drop.
    fn reserve(connections: &Arc<AtomicUsize>) -> Option<Slot> {
        let slot = Slot(connections.clone());
        (connections.fetch_add(1, Ordering::SeqCst) < MAX_CONNECTIONS).then_some(slot)
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Accepts front-door connections forever, one thread per client, at most
/// [`MAX_CONNECTIONS`] at a time — a client beyond the cap receives a
/// one-line `{"ok":false,"error":"too many connections"}` and is closed
/// immediately. Runs on its own thread; the process ends when the service
/// loop returns after a `shutdown` command, taking this daemon thread with
/// it.
pub fn serve(listener: TcpListener, handle: ServiceHandle, submit: SubmitFn) {
    let submit = Arc::new(submit);
    let connections = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let Some(slot) = Slot::reserve(&connections) else {
            let _ = writeln!(stream, "{}", err("too many connections").render());
            info!("front door: connection rejected (at the {MAX_CONNECTIONS}-connection cap)");
            continue;
        };
        let handle = handle.clone();
        let submit = submit.clone();
        std::thread::spawn(move || {
            let _slot = slot;
            serve_connection(stream, handle, &submit);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{RunService, RunServiceConfig};
    use c9_net::{InProcTransport, Transport};
    use std::time::{Duration, Instant};

    /// Sends one line on a fresh connection and returns the reply line
    /// (empty if the server closed the connection without one).
    fn exchange(addr: std::net::SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to the front door");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        // A connection rejected at the cap may be closed before the line
        // is written; the reply read below tells.
        let _ = writeln!(stream, "{line}");
        let mut reply = String::new();
        let _ = BufReader::new(stream).read_line(&mut reply);
        reply
    }

    #[test]
    fn a_panicking_submit_does_not_use_up_a_slot() {
        let endpoints = InProcTransport.establish(1).expect("in-process transport");
        let service = RunService::new(endpoints.coordinator, RunServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let submit: SubmitFn = Box::new(|_| panic!("submit handler failed"));
        let handle = service.handle();
        std::thread::spawn(move || serve(listener, handle, submit));

        // Each panicking connection dies without a reply; with a leaked
        // slot per panic the front door would be locked after the cap.
        for _ in 0..=MAX_CONNECTIONS {
            exchange(addr, r#"{"cmd":"submit","target":"x"}"#);
        }
        // A slot is released as the thread unwinds, which can trail the
        // socket's close by a moment: poll for an answer.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let reply = exchange(addr, r#"{"cmd":"status"}"#);
            if reply.contains("missing or invalid") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "front door locked after panicking submits: {reply:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
