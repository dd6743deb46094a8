//! The batch path: run the scenario through the sequential engine, compute
//! every verdict the batch path gives, score it against ground truth, and
//! run the same job on 2 conservative shards.

use std::time::Instant;

use psn_core::{run_execution_instrumented, ExecutionConfig, ExecutionTrace};
use psn_predicates::{
    detect_occurrences, modal_status, modal_status_streaming, score, BorderlinePolicy, Detection,
    Discipline, ModalStatus, Predicate,
};
use psn_sim::metrics::Metrics;
use psn_sim::time::SimDuration;
use psn_world::scenarios::exhibition::ATTR_X;
use psn_world::{truth_intervals, AttrValue, Scenario, WorldState};

use crate::spans::{call, call_n};
use crate::workload::DELTA_MAX_MS;
use crate::Tally;

/// One batch job's timings and the counts the traced run reports. The
/// sequential run's trace, reports only, is returned beside it.
pub struct BatchOut {
    pub engine_eps: f64,
    pub detect_rps: f64,
    pub scenario_s: f64,
    pub sharded_s: f64,
    pub f1: f64,
    /// Engine counters of the sequential run (events processed, delivered).
    pub events_processed: u64,
    pub delivered: u64,
    /// Engine counters of the sharded run (windows, op barriers).
    pub windows: u64,
    pub op_barriers: u64,
}

fn counter(m: &Metrics, name: &str) -> u64 {
    m.snapshot().counter(name).unwrap_or(0)
}

/// Occupancy from the doors' counters, given as (attribute, value) pairs:
/// entries (x) minus exits (y).
fn occupancy(values: impl Iterator<Item = (usize, AttrValue)>) -> i64 {
    values.map(|(attr, v)| if attr == ATTR_X { v.as_int() } else { -v.as_int() }).sum()
}

pub fn run(
    scenario: &Scenario,
    cfg: &ExecutionConfig,
    preds: &[(String, Predicate)],
    discipline: Discipline,
    tally: &mut Tally,
) -> (BatchOut, ExecutionTrace) {
    let initial: WorldState = scenario.timeline.initial_state();

    // Sequential engine.
    let metrics = Metrics::new();
    let t0 = Instant::now();
    let mut trace =
        call("psn-sim", "engine.run_seq", || run_execution_instrumented(scenario, cfg, &metrics));
    let seq_s = t0.elapsed().as_secs_f64();
    let events_processed = counter(&metrics, "engine.events_processed");
    let delivered = counter(&metrics, "engine.messages_delivered");
    tally.op(true);

    // Every verdict the batch path gives, for both predicates.
    let reports = trace.log.reports.len() as u64;
    let t1 = Instant::now();
    let mut verdicts: Vec<(Vec<Detection>, ModalStatus)> = Vec::with_capacity(preds.len());
    for (_, p) in preds {
        let det = call_n("psn-predicates", "predicates.detect_occurrences", reports, || {
            detect_occurrences(&trace, p, &initial, discipline)
        });
        let modal = call_n("psn-predicates", "predicates.modal_status_streaming", reports, || {
            modal_status_streaming(&trace, p, &initial)
        });
        verdicts.push((det, modal));
    }
    let detect_s = t1.elapsed().as_secs_f64();

    // Score the relational predicate's occurrences against ground truth.
    let horizon = trace.ended_at;
    let tolerance = SimDuration::from_millis(2 * DELTA_MAX_MS);
    let report = call("psn-predicates", "predicates.score", || {
        let truth = truth_intervals(&scenario.timeline, |s| preds[0].1.eval_state(s));
        score(&verdicts[0].0, &truth, horizon, tolerance, BorderlinePolicy::AsPositive)
    });
    let scenario_s = t0.elapsed().as_secs_f64();
    tally.ops(2 * preds.len() as u64 + 1, true);

    // Output checks.
    let events = &scenario.timeline.events;
    tally.check(trace.log.reports.len() == events.len(), || {
        format!("{} reports for {} sensed world events", trace.log.reports.len(), events.len())
    });
    let mut seen: std::collections::BTreeMap<_, (usize, AttrValue)> = Default::default();
    for r in &trace.log.reports {
        let e = seen.entry(r.report.key).or_insert((0, AttrValue::Int(0)));
        if r.report.sense_seq >= e.0 {
            *e = (r.report.sense_seq, r.report.value);
        }
    }
    let rebuilt = occupancy(seen.iter().map(|(k, (_, v))| (k.attr, *v)));
    let mut last: std::collections::BTreeMap<_, AttrValue> = Default::default();
    for e in events {
        last.insert(e.key, e.value);
    }
    let truth = occupancy(last.iter().map(|(k, v)| (k.attr, *v)));
    tally.check(rebuilt == truth, || {
        format!("occupancy from reports {rebuilt} != timeline {truth}")
    });
    for ((name, p), (_, streaming)) in preds.iter().zip(&verdicts) {
        let offline = call_n("psn-predicates", "predicates.modal_status", reports, || {
            modal_status(&trace, p, &initial)
        });
        tally.check(*streaming == offline, || {
            format!("{name}: streaming modal {streaming:?} != offline {offline:?}")
        });
        if matches!(p, Predicate::Relational(_)) {
            tally.check(streaming.possibly == streaming.definitely, || {
                format!("{name}: relational possibly != definitely: {streaming:?}")
            });
        }
    }
    // Only the reports are used from here on; shed the process-event log
    // before the second run so the two event logs are never held at once.
    trace.log.events = Vec::new();

    // The same job on 2 conservative shards.
    let sharded_cfg = ExecutionConfig { shards: 2, ..cfg.clone() };
    let sharded_metrics = Metrics::new();
    let t2 = Instant::now();
    let sharded = call("psn-sim", "engine.run_sharded", || {
        run_execution_instrumented(scenario, &sharded_cfg, &sharded_metrics)
    });
    let sharded_s = t2.elapsed().as_secs_f64();
    tally.op(true);

    tally.check(sharded.log.reports == trace.log.reports, || {
        "the 2-shard report stream differs from the sequential one".to_string()
    });

    let out = BatchOut {
        engine_eps: events_processed as f64 / seq_s,
        detect_rps: reports as f64 / detect_s,
        scenario_s,
        sharded_s,
        f1: report.f1(),
        events_processed,
        delivered,
        windows: counter(&sharded_metrics, "engine.windows"),
        op_barriers: counter(&sharded_metrics, "engine.op_barriers"),
    };
    (out, trace)
}
