//! The serving path: one client thread on one loopback connection drives a
//! `psn-serve` session with pipelined windows of `Ingest` frames, each
//! followed by an `Advance`, probes `Status` on the drained pipe, and ends
//! with `Snapshot` plus a restore into a fresh session.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use psn_core::{ExecutionLog, ExecutionTrace};
use psn_predicates::{modal_status, Predicate};
use psn_serve::{
    read_frame, serve, write_frame, Request, Response, ServeConfig, ServeSession, ServeSnapshot,
    ServerHandle,
};
use psn_sim::time::{SimDuration, SimTime};
use psn_world::{AttrKey, AttrValue, WorldState};

use crate::spans::{call, call_n};
use crate::Tally;

/// One sense event as the client sends it.
#[derive(Debug, Clone, Copy)]
pub struct Ingest {
    pub at: SimTime,
    pub process: usize,
    pub key: AttrKey,
    pub value: AttrValue,
}

impl Ingest {
    pub fn request(&self) -> Request {
        Request::Ingest { at: self.at, process: self.process, key: self.key, value: self.value }
    }
}

/// A client connection: frames are encoded into one buffer and written
/// with a single `write_all`, replies are read through a buffered reader.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the benchmark's own server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let writer = stream.try_clone().expect("clone the client socket");
        Conn { reader: BufReader::new(stream), writer, buf: Vec::new() }
    }

    fn send(&mut self, reqs: impl IntoIterator<Item = Request>) {
        self.buf.clear();
        for r in reqs {
            write_frame(&mut self.buf, &r).expect("encode into memory");
        }
        self.writer.write_all(&self.buf).expect("write to the server");
    }

    fn recv(&mut self) -> Response {
        read_frame(&mut self.reader).expect("read a reply").expect("the server replies")
    }

    fn round_trip(&mut self, req: Request) -> Response {
        self.send([req]);
        self.recv()
    }
}

/// A running server with the benchmark's connection to it.
pub struct Live {
    handle: ServerHandle,
    conn: Conn,
    /// Wall time of the first round trip, spent waiting to be accepted.
    pub accept_s: f64,
}

/// Start a server for a fresh session and register the watches over the wire.
pub fn start(cfg: ServeConfig, preds: &[(String, Predicate)], tally: &mut Tally) -> Live {
    let (handle, mut conn) = call("psn-serve", "serve.start", || {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let handle = serve(listener, ServeSession::new(cfg)).expect("start the server");
        let conn = Conn::connect(handle.addr());
        (handle, conn)
    });
    // The first reply on a new connection waits for the server's accept
    // loop, which polls every 5 ms; that wait is timed apart from setup.
    let t = Instant::now();
    let r = call("psn-serve", "serve.accept", || conn.round_trip(Request::Ping));
    let accept_s = t.elapsed().as_secs_f64();
    tally.op(matches!(r, Response::Pong));
    for (i, (name, p)) in preds.iter().enumerate() {
        let r = call("psn-serve", "serve.watch", || {
            conn.round_trip(Request::Watch { name: name.clone(), predicate: p.clone() })
        });
        tally.op(matches!(r, Response::Watching { watched, .. } if watched == i + 1));
    }
    Live { handle, conn, accept_s }
}

/// What one serving round measured.
pub struct ServeOut {
    pub ingest_eps: f64,
    pub advance_ms: Vec<f64>,
    pub status_ms: Vec<f64>,
    pub snapshot_bytes: usize,
    pub restore_s: f64,
    /// Every request of the ingest stream in order (traced runs only).
    pub requests: Vec<Request>,
    pub mem_high_water_cuts: u64,
}

fn statuses(conn: &mut Conn, preds: &[(String, Predicate)], tally: &mut Tally) -> Vec<Response> {
    preds
        .iter()
        .map(|(name, _)| {
            let r = call("psn-serve", "serve.final_status", || {
                conn.round_trip(Request::Status { name: name.clone() })
            });
            tally.op(matches!(r, Response::Status { .. }));
            r
        })
        .collect()
}

/// How the client paces the stream.
pub struct Plan {
    /// Ingest frames per pipelined window.
    pub window: usize,
    /// Windows between two Status probes.
    pub status_every: usize,
    /// Keep every request sent, for the traced run's layer replays.
    pub record: bool,
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    live: Live,
    events: &[Ingest],
    plan: &Plan,
    preds: &[(String, Predicate)],
    initial: &WorldState,
    episodes: Option<usize>,
    snapshot_path: &Path,
    tally: &mut Tally,
) -> ServeOut {
    let Live { handle, mut conn, .. } = live;
    let mut requests = Vec::new();
    let mut advance_ms = Vec::new();
    let mut status_ms = Vec::new();
    let mut busy = 0.0f64;
    let mut next_id = 0u64;
    let windows: Vec<&[Ingest]> = events.chunks(plan.window).collect();
    for (i, chunk) in windows.iter().enumerate() {
        let to = match windows.get(i + 1) {
            Some(next) => next[0].at,
            None => chunk[chunk.len() - 1].at + SimDuration::from_millis(1),
        };
        if plan.record {
            requests.extend(chunk.iter().map(Ingest::request));
            requests.push(Request::Advance { to });
        }
        let t0 = Instant::now();
        call_n("psn-serve", "serve.ingest_window", chunk.len() as u64, || {
            conn.send(chunk.iter().map(Ingest::request));
            for _ in 0..chunk.len() {
                let r = conn.recv();
                let ok = matches!(r, Response::Ingested { world_event } if world_event == next_id);
                tally.check(ok, || format!("ingest {next_id} answered {r:?}"));
                next_id += 1;
            }
        });
        let t1 = Instant::now();
        let r = call("psn-serve", "serve.advance", || conn.round_trip(Request::Advance { to }));
        let t2 = Instant::now();
        tally.op(matches!(r, Response::Advanced { .. }));
        busy += (t2 - t0).as_secs_f64();
        advance_ms.push((t2 - t1).as_secs_f64() * 1e3);
        if (i + 1) % plan.status_every == 0 {
            // One probe asks for every watch, pipelined; it is one sample.
            let probe = || preds.iter().map(|(name, _)| Request::Status { name: name.clone() });
            if plan.record {
                requests.extend(probe());
            }
            let t = Instant::now();
            call_n("psn-serve", "serve.status", preds.len() as u64, || {
                conn.send(probe());
                for _ in preds {
                    let r = conn.recv();
                    tally.op(matches!(r, Response::Status { .. }));
                }
            });
            status_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let ingest_eps = events.len() as f64 / busy;

    // Drain: every report of the stream reaches the root, then read the
    // final verdicts and the frontier.
    let end = events[events.len() - 1].at + SimDuration::from_secs(5);
    let r = call("psn-serve", "serve.advance", || conn.round_trip(Request::Advance { to: end }));
    tally.op(matches!(r, Response::Advanced { .. }));
    if plan.record {
        requests.push(Request::Advance { to: end });
    }
    let finals = statuses(&mut conn, preds, tally);
    let frontier = call("psn-serve", "serve.frontier", || conn.round_trip(Request::Frontier));
    tally.op(matches!(frontier, Response::Frontier { .. }));
    let snapshot_bytes =
        match call("psn-serve", "serve.snapshot", || conn.round_trip(Request::Snapshot)) {
            Response::Snapshot { bytes, path: Some(_) } => {
                tally.op(true);
                bytes
            }
            other => {
                tally.check(false, || format!("snapshot answered {other:?}"));
                0
            }
        };
    let r = conn.round_trip(Request::Shutdown);
    tally.op(matches!(r, Response::ShuttingDown));
    let session = handle.wait().expect("the service thread returns its session");

    // The live verdicts equal the offline ones over the session's own
    // reports; on the generated stream they also equal the known count.
    let trace = ExecutionTrace {
        n: session.live().n(),
        log: ExecutionLog {
            reports: session.live().with_log(|l| l.reports.clone()),
            ..Default::default()
        },
        net: Default::default(),
        sim: psn_sim::trace::Trace::disabled(),
        ended_at: session.live().watermark(),
        faults: None,
        rollbacks: 0,
    };
    drop(session);
    let mut mem_high_water_cuts = 0;
    for ((name, p), st) in preds.iter().zip(&finals) {
        let Response::Status { online, modal, mem_high_water_cuts: hw, .. } = st else {
            tally.check(false, || format!("{name}: final status answered {st:?}"));
            continue;
        };
        mem_high_water_cuts = mem_high_water_cuts.max(*hw);
        let offline = modal_status(&trace, p, initial);
        tally.check(*modal == offline, || {
            format!("{name}: live modal {modal:?} != offline {offline:?}")
        });
        if let (Some(n), Predicate::Relational(_)) = (episodes, p) {
            tally.check(modal.possibly == n && online.occurrences == n, || {
                format!("{name}: {n} episodes in the input, Status says {online:?} / {modal:?}")
            });
        }
    }

    // Restore into a fresh session; it must answer as the live one did.
    let t3 = Instant::now();
    let restored = call("psn-serve", "serve.restore", || {
        let snap = ServeSnapshot::load(snapshot_path).expect("read the snapshot back");
        ServeSession::restore(snap, None).expect("restore the snapshot")
    });
    let restore_s = t3.elapsed().as_secs_f64();
    tally.op(true);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let handle = serve(listener, restored).expect("start the restored server");
    let mut conn = Conn::connect(handle.addr());
    let again = statuses(&mut conn, preds, tally);
    for (name, (a, b)) in preds.iter().map(|(n, _)| n).zip(finals.iter().zip(&again)) {
        let same = match (a, b) {
            (
                Response::Status { online: o1, modal: m1, .. },
                Response::Status { online: o2, modal: m2, .. },
            ) => o1 == o2 && m1 == m2,
            _ => false,
        };
        tally.check(same, || format!("{name}: restored status {b:?} != live {a:?}"));
    }
    let frontier2 = conn.round_trip(Request::Frontier);
    tally.op(true);
    tally.check(frontier2 == frontier, || {
        format!("restored frontier {frontier2:?} != live {frontier:?}")
    });
    let r = conn.round_trip(Request::Shutdown);
    tally.op(matches!(r, Response::ShuttingDown));
    drop(handle.wait());
    let _ = std::fs::remove_file(snapshot_path);

    ServeOut {
        ingest_eps,
        advance_ms,
        status_ms,
        snapshot_bytes,
        restore_s,
        requests,
        mem_high_water_cuts,
    }
}
