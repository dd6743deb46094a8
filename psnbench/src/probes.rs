//! Layer probes of the traced run. Each one replays what the timed round
//! just did against one layer's public functions, inside spans, so the
//! layer's share can be read without instrumenting the program: the wire
//! codec on in-memory buffers, `ServeSession::handle` in-process,
//! `LiveExecution::advance_to` alone, the streaming and online detectors
//! over the captured report stream, and vector-clock merge and clone at the
//! workload's stamp width.

use std::hint::black_box;
use std::sync::mpsc;

use psn_clocks::VectorStamp;
use psn_core::{ExecutionConfig, ExecutionTrace, LiveExecution, NetMsg};
use psn_predicates::{OnlineDetector, Predicate, StreamingModal};
use psn_serve::{read_frame, write_frame, Request, Response, ServeConfig, ServeSession};
use psn_sim::provider::{ChannelProvider, ExternalEvent};
use psn_sim::time::SimDuration;
use psn_world::WorldState;

use crate::spans::{call, call_n};

/// Counts the traced run reports next to the span timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub frame_bytes: f64,
    pub log_events: u64,
    pub log_reports: u64,
    pub journal_events: u64,
}

/// `write_frame` and `read_frame` over every request of the stream, on an
/// in-memory buffer.
pub fn wire(requests: &[Request]) -> f64 {
    let n = requests.len() as u64;
    let mut buf = Vec::new();
    call_n("psn-serve", "wire.write_frame", n, || {
        for r in requests {
            write_frame(&mut buf, r).expect("encode into memory");
        }
    });
    call_n("psn-serve", "wire.read_frame", n, || {
        let mut cursor = &buf[..];
        while let Some(r) = read_frame::<Request>(&mut cursor).expect("decode from memory") {
            black_box(r);
        }
    });
    buf.len() as f64 / n.max(1) as f64
}

/// The same requests applied to an in-process session, one span per
/// `ServeSession::handle`.
pub fn session(
    cfg: ServeConfig,
    preds: &[(String, Predicate)],
    requests: &[Request],
    counts: &mut Counts,
) {
    let mut s = ServeSession::new(cfg);
    for (name, p) in preds {
        s.handle(Request::Watch { name: name.clone(), predicate: p.clone() });
    }
    for r in requests {
        let name = match r {
            Request::Ingest { .. } => "session.ingest",
            Request::Advance { .. } => "session.advance",
            Request::Status { .. } => "session.status",
            _ => "session.other",
        };
        let resp = call("psn-serve", name, || s.handle(r.clone()));
        assert!(!matches!(resp, Response::Error { .. }), "in-process replay of {r:?}: {resp:?}");
    }
    let (events, reports) = s.live().with_log(|l| (l.events.len(), l.reports.len()));
    counts.log_events = events as u64;
    counts.log_reports = reports as u64;
    counts.journal_events = s.live().journal().len() as u64;
}

/// `LiveExecution::advance_to` alone: the ingest stream pushed through a
/// channel provider window by window, then a restore of its snapshot.
pub fn live(n: usize, cfg: &ExecutionConfig, requests: &[Request]) {
    let (tx, rx) = mpsc::channel();
    let mut live = LiveExecution::new(n, cfg.clone(), Box::new(ChannelProvider::new(rx)));
    let mut pending = 0u64;
    let mut world_event = 0usize;
    for r in requests {
        match r {
            Request::Ingest { at, process, key, value } => {
                let msg = NetMsg::WorldSense { key: *key, value: *value, world_event };
                world_event += 1;
                tx.send(ExternalEvent { at: *at, to: *process, from: *process, msg })
                    .expect("the live execution holds the receiver");
                pending += 1;
            }
            Request::Advance { to } => {
                call_n("psn-core", "live.advance_to", pending, || live.advance_to(*to))
                    .expect("advance the live execution");
                pending = 0;
            }
            _ => {}
        }
    }
    let snap = live.snapshot();
    let (_tx2, rx2) = mpsc::channel();
    let restored =
        call("psn-core", "live.restore", || snap.restore(Box::new(ChannelProvider::new(rx2))));
    black_box(restored.expect("restore the live snapshot").watermark());
}

/// The streaming detectors replayed over the captured report stream: one
/// span per chunk of 512 offers, and a `status()` probe after each chunk.
pub fn detectors(
    trace: &ExecutionTrace,
    preds: &[(String, Predicate)],
    initial: &WorldState,
    hold_back: SimDuration,
) {
    const CHUNK: usize = 512;
    for (_, p) in preds {
        let name = match p {
            Predicate::Relational(_) => "detector.relational_offer",
            Predicate::Conjunctive(_) => "detector.conjunctive_offer",
        };
        let mut s = StreamingModal::new(p, initial, trace.n, hold_back);
        for chunk in trace.log.reports.chunks(CHUNK) {
            call_n("psn-predicates", name, chunk.len() as u64, || {
                for r in chunk {
                    s.offer(r);
                }
            });
            black_box(call("psn-predicates", "detector.status", || s.status()));
        }
        black_box(s.seal());
        if matches!(p, Predicate::Relational(_)) {
            let mut online = OnlineDetector::new(p.clone(), initial, hold_back);
            for chunk in trace.log.reports.chunks(CHUNK) {
                call_n("psn-predicates", "detector.online_offer", chunk.len() as u64, || {
                    for r in chunk {
                        online.offer(r);
                    }
                });
            }
            black_box(online.finish());
        }
    }
}

/// Vector-clock merge and clone at `width` components (sensors + root).
pub fn clocks(width: usize) {
    let iters: u64 = (4_000_000 / width as u64).max(1_000);
    let mut a = VectorStamp::from((0..width as u64).collect::<Vec<_>>());
    let b = VectorStamp::from((0..width as u64).rev().collect::<Vec<_>>());
    call_n("psn-clocks", "clocks.merge", iters, || {
        for _ in 0..iters {
            a.merge_from(black_box(&b));
        }
    });
    call_n("psn-clocks", "clocks.clone", iters, || {
        for _ in 0..iters {
            black_box(black_box(&b).clone());
        }
    });
    black_box(a);
}
