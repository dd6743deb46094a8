//! `psnbench` — the end-to-end and per-layer benchmark of the pervasive-time
//! workspace.
//!
//! ```sh
//! cargo run --release --manifest-path psnbench/Cargo.toml -- \
//!     --workload serve-ingest --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run repeats whole rounds of one workload for `--seconds` (at least the
//! workload's minimum number of rounds). A round sets up (compile the `.psn`
//! program, build the scenario, start a `psn-serve` server and register two
//! watches), runs the batch path (sequential engine, every verdict, scoring,
//! the 2-shard run) and then the serving path (pipelined ingest windows with
//! `Advance` and `Status`, `Snapshot`, restore). Every output check counts
//! as an operation. With `--trace 0` the last line of standard output holds
//! the end-to-end metrics; with `--trace 1` the run alternates untraced and
//! traced rounds and reports per-layer numbers from spans the benchmark
//! records around its calls into each crate, plus the tracing overhead.
//! `--short` runs each named workload (or all three) once at reduced size
//! with every check and every probe, and exits non-zero if a check fails.

mod batch;
mod probes;
mod serve;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use psn_predicates::Predicate;
use psn_serve::ServeConfig;
use psn_world::{Scenario, Timeline};

use serve::Ingest;
use workload::Workload;

/// Operations attempted and failed, and why the first few failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks (wrong answers, as opposed to refused requests).
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.ops(1, ok);
    }

    pub fn ops(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// An output check: one operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.wrong += 1;
            if self.notes.len() < 8 {
                self.notes.push(why());
            }
        }
    }
}

/// Where the benchmark writes snapshots and span files: inside its own
/// directory of the checkout.
fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

/// What one round measured.
struct Round {
    setup_s: f64,
    batch: batch::BatchOut,
    serve: serve::ServeOut,
    /// Setup plus every timed phase: the quantity the tracing overhead is
    /// computed on.
    timed_s: f64,
    /// Counts from the layer probes (traced rounds only).
    counts: Option<probes::Counts>,
}

/// A round's input.
struct Setup {
    scenario: Scenario,
    discipline: psn_predicates::Discipline,
    preds: Vec<(String, Predicate)>,
    /// Over-capacity episodes of a generated stream.
    episodes: Option<usize>,
    ingest: Vec<Ingest>,
    cfg: ServeConfig,
}

/// Compile the workload's program, build its timeline, start a server and
/// register the watches.
fn setup(w: &Workload, seed: u64, snapshot_path: &Path, tally: &mut Tally) -> (Setup, serve::Live) {
    let src = workload::source(w, seed);
    let compiled = spans::call("psn-lang", "lang.compile", || psn_lang::compile(&src))
        .expect("the workload's program compiles");
    let psn_lang::CompiledScenario { mut scenario, config: exec, predicates, discipline, .. } =
        compiled;
    let episodes = match w.synthetic_events {
        Some(n) => {
            let synth = workload::synthetic(w.world.doors, w.world.capacity, n, seed);
            let objects = std::mem::take(&mut scenario.timeline.objects);
            scenario.timeline =
                spans::call("psn-world", "world.generate", || Timeline::new(objects, synth.events));
            Some(synth.episodes)
        }
        None => {
            scenario.timeline.events.truncate(w.max_events);
            None
        }
    };
    let ingest: Vec<Ingest> = scenario
        .timeline
        .events
        .iter()
        .take(w.serve_events)
        .map(|e| Ingest {
            at: e.at,
            process: scenario.sensing.process_for(e.key).expect("every attribute is sensed"),
            key: e.key,
            value: e.value,
        })
        .collect();
    let preds: Vec<(String, Predicate)> =
        predicates.into_iter().map(|p| (p.name, p.predicate)).collect();
    let cfg = ServeConfig {
        n: scenario.num_processes(),
        exec,
        hold_back: workload::hold_back(),
        initial: scenario.timeline.initial_state(),
        snapshot_path: Some(snapshot_path.to_path_buf()),
    };
    let live = serve::start(cfg.clone(), &preds, tally);
    (Setup { scenario, discipline, preds, episodes, ingest, cfg }, live)
}

/// Replay the round against single layers (traced rounds only).
fn probe(
    w: &Workload,
    seed: u64,
    st: &Setup,
    requests: &[psn_serve::Request],
    trace: &psn_core::ExecutionTrace,
) -> probes::Counts {
    if w.synthetic_events.is_none() {
        spans::call("psn-world", "world.generate", || {
            psn_world::scenarios::exhibition::generate(&w.world, seed)
        });
    }
    let mut counts = probes::Counts { frame_bytes: probes::wire(requests), ..Default::default() };
    probes::session(st.cfg.clone(), &st.preds, requests, &mut counts);
    probes::live(st.cfg.n, &st.cfg.exec, requests);
    probes::detectors(trace, &st.preds, &st.cfg.initial, workload::hold_back());
    probes::clocks(st.cfg.n + 1);
    counts
}

fn round(w: &Workload, seed: u64, traced: bool, tally: &mut Tally) -> Round {
    spans::set_enabled(traced);
    let snapshot_path = out_dir().join(format!("snapshot-{}-{}.json", w.name, std::process::id()));
    spans::call("harness", "harness.round", || {
        let t0 = Instant::now();
        let (st, live) =
            spans::call("harness", "harness.setup", || setup(w, seed, &snapshot_path, tally));
        let setup_s = t0.elapsed().as_secs_f64() - live.accept_s;
        let (batch, trace) = spans::call("harness", "harness.batch", || {
            batch::run(&st.scenario, &st.cfg.exec, &st.preds, st.discipline, tally)
        });
        let mut serve = spans::call("harness", "harness.serve", || {
            let plan =
                serve::Plan { window: w.window, status_every: w.status_every, record: traced };
            serve::run(
                live,
                &st.ingest,
                &plan,
                &st.preds,
                &st.cfg.initial,
                st.episodes,
                &snapshot_path,
                tally,
            )
        });
        let timed_s = setup_s
            + batch.scenario_s
            + batch.sharded_s
            + st.ingest.len() as f64 / serve.ingest_eps
            + serve.restore_s;
        let counts = traced.then(|| {
            let requests = std::mem::take(&mut serve.requests);
            spans::call("harness", "harness.probes", || probe(w, seed, &st, &requests, &trace))
        });
        Round { setup_s, batch, serve, timed_s, counts }
    })
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb * 1024.0 / 1e6
}

/// Cores, CPU model, rustc and git revision of the measuring host.
fn fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let rev = if repo.join(".git").exists() {
        std::process::Command::new("git")
            .arg("-C")
            .arg(&repo)
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    format!(
        "{{\"cores\":{cores},\"cpu\":{},\"rustc\":{},\"git_rev\":{}}}",
        json_str(&cpu),
        json_str(env!("PSNBENCH_RUSTC")),
        json_str(rev.as_deref().unwrap_or("unknown (not a git checkout)"))
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn metric(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric { name: name.to_string(), unit, value, samples }
}

fn medians(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> (f64, usize) {
    let xs: Vec<f64> = rounds.iter().map(|r| f(r)).collect();
    (stats::median(&xs), xs.len())
}

/// The end-to-end metrics of untraced rounds.
fn end_to_end(rounds: &[&Round]) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();
    let mut per_round = |name: &str, unit, f: &dyn Fn(&Round) -> f64| {
        let (v, n) = medians(rounds, f);
        m.push(metric(name, unit, v, n));
    };
    per_round("setup_s", "s", &|r| r.setup_s);
    per_round("ingest_eps", "1/s", &|r| r.serve.ingest_eps);
    per_round("restore_s", "s", &|r| r.serve.restore_s);
    per_round("snapshot_mb", "MB", &|r| r.serve.snapshot_bytes as f64 / 1e6);
    per_round("scenario_s", "s", &|r| r.batch.scenario_s);
    per_round("engine_eps", "1/s", &|r| r.batch.engine_eps);
    per_round("detect_rps", "1/s", &|r| r.batch.detect_rps);
    per_round("sharded_s", "s", &|r| r.batch.sharded_s);
    let advance: Vec<f64> =
        rounds.iter().flat_map(|r| r.serve.advance_ms.iter().copied()).collect();
    let status: Vec<f64> = rounds.iter().flat_map(|r| r.serve.status_ms.iter().copied()).collect();
    let a = stats::summarize(&advance);
    m.push(metric("advance_p50_ms", "ms", a.median, a.samples));
    match a.p99 {
        Some(p99) => m.push(metric("advance_p99_ms", "ms", p99, a.samples)),
        None => {
            return Err(format!("{} Advance samples leave fewer than 10 beyond the p99", a.samples))
        }
    }
    let s = stats::summarize(&status);
    m.push(metric("status_p50_ms", "ms", s.median, s.samples));
    m.push(metric("rss_mb", "MB", peak_rss_mb(), 1));
    Ok(m)
}

/// The per-layer metrics of traced rounds, from their spans.
fn per_layer(traced: &[&Round], untraced: &[&Round], all_spans: &[spans::Span]) -> Vec<Metric> {
    let (names, layers) = spans::summarize(all_spans);
    let k = traced.len();
    let get = |n: &str| names.get(n).copied().unwrap_or_default();
    let per_item = |n: &str, scale: f64| {
        let t = get(n);
        t.ns as f64 / t.items.max(1) as f64 / scale
    };
    let per_call = |n: &str, scale: f64| {
        let t = get(n);
        t.ns as f64 / t.calls.max(1) as f64 / scale
    };
    let rate = |ns: &[&str]| {
        let (items, t): (u64, u64) =
            ns.iter().map(|n| get(n)).fold((0, 0), |(i, t), x| (i + x.items, t + x.ns));
        items as f64 / (t.max(1) as f64 / 1e9)
    };
    let last = traced[k - 1];
    let counts = last.counts.expect("traced rounds carry probe counts");
    let wire_ns = get("serve.ingest_window").ns + get("serve.advance").ns;
    let handle = get("session.ingest");
    let adv = get("session.advance");
    let requests = handle.calls + adv.calls;
    let mut m = vec![
        metric(
            "wire.encode_us",
            "us",
            per_item("wire.write_frame", 1e3),
            get("wire.write_frame").items as usize,
        ),
        metric(
            "wire.decode_us",
            "us",
            per_item("wire.read_frame", 1e3),
            get("wire.read_frame").items as usize,
        ),
        metric("wire.frame_bytes", "B", counts.frame_bytes, get("wire.write_frame").items as usize),
        metric(
            "serve.transport_us",
            "us",
            (wire_ns as f64 - (handle.ns + adv.ns) as f64) / requests.max(1) as f64 / 1e3,
            requests as usize,
        ),
        metric(
            "serve.accept_ms",
            "ms",
            per_call("serve.accept", 1e6),
            get("serve.accept").calls as usize,
        ),
        metric("session.ingest_us", "us", per_call("session.ingest", 1e3), handle.calls as usize),
        metric("session.advance_us", "us", per_call("session.advance", 1e3), adv.calls as usize),
        metric(
            "session.status_us",
            "us",
            per_call("session.status", 1e3),
            get("session.status").calls as usize,
        ),
        metric(
            "live.advance_us_per_event",
            "us",
            per_item("live.advance_to", 1e3),
            get("live.advance_to").items as usize,
        ),
        metric(
            "live.restore_s",
            "s",
            per_call("live.restore", 1e9),
            get("live.restore").calls as usize,
        ),
        metric("live.log_events", "count", counts.log_events as f64, 1),
        metric("live.log_reports", "count", counts.log_reports as f64, 1),
        metric("live.journal_events", "count", counts.journal_events as f64, 1),
        metric(
            "detector.relational_offer_ns",
            "ns",
            per_item("detector.relational_offer", 1.0),
            get("detector.relational_offer").items as usize,
        ),
        metric(
            "detector.conjunctive_offer_ns",
            "ns",
            per_item("detector.conjunctive_offer", 1.0),
            get("detector.conjunctive_offer").items as usize,
        ),
        metric(
            "detector.online_offer_ns",
            "ns",
            per_item("detector.online_offer", 1.0),
            get("detector.online_offer").items as usize,
        ),
        metric(
            "detector.status_us",
            "us",
            per_call("detector.status", 1e3),
            get("detector.status").calls as usize,
        ),
        metric("detector.mem_high_water_cuts", "count", last.serve.mem_high_water_cuts as f64, 1),
        metric(
            "detect.offline_rps",
            "1/s",
            rate(&["predicates.detect_occurrences", "predicates.modal_status"]),
            k,
        ),
        metric("detect.streaming_rps", "1/s", rate(&["predicates.modal_status_streaming"]), k),
        metric("engine.events_processed", "count", last.batch.events_processed as f64, 1),
        metric("engine.delivered", "count", last.batch.delivered as f64, 1),
        metric("engine.windows", "count", last.batch.windows as f64, 1),
        metric("engine.op_barriers", "count", last.batch.op_barriers as f64, 1),
        metric(
            "engine.run_s",
            "s",
            per_call("engine.run_seq", 1e9),
            get("engine.run_seq").calls as usize,
        ),
        metric(
            "engine.sharded_run_s",
            "s",
            per_call("engine.run_sharded", 1e9),
            get("engine.run_sharded").calls as usize,
        ),
        metric(
            "clocks.merge_ns",
            "ns",
            per_item("clocks.merge", 1.0),
            get("clocks.merge").items as usize,
        ),
        metric(
            "clocks.clone_ns",
            "ns",
            per_item("clocks.clone", 1.0),
            get("clocks.clone").items as usize,
        ),
        metric(
            "lang.compile_ms",
            "ms",
            per_call("lang.compile", 1e6),
            get("lang.compile").calls as usize,
        ),
        metric(
            "world.generate_ms",
            "ms",
            per_call("world.generate", 1e6),
            get("world.generate").calls as usize,
        ),
    ];
    for (layer, t) in &layers {
        m.push(metric(&format!("self_ms.{layer}"), "ms", t.self_ns as f64 / k as f64 / 1e6, k));
        m.push(metric(&format!("calls.{layer}"), "count", t.calls as f64 / k as f64, k));
    }
    let (on, _) = medians(traced, |r| r.timed_s);
    let (off, _) = medians(untraced, |r| r.timed_s);
    m.push(metric("trace.overhead_pct", "%", (on / off - 1.0) * 100.0, k.min(untraced.len())));
    m.push(metric("trace.spans", "count", all_spans.len() as f64 / k as f64, k));
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    /// Overrides the number of events per round (the session length).
    events: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
        short: false,
        events: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--short" => a.short = true,
            "--events" => match value()?.parse() {
                Ok(n) if n > 0 => a.events = Some(n),
                _ => return Err("--events takes a positive count".into()),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !a.short && workload::by_name(&a.workload, false).is_none() {
        return Err(format!("--workload must be one of {:?}", workload::NAMES));
    }
    Ok(a)
}

/// `{"name": {"value", "unit"[, "samples"]}, …}`, sorted by name.
fn metrics_json(metrics: &[Metric], samples: bool) -> String {
    let mut body: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| {
            let n = if samples { format!(",\"samples\":{}", m.samples) } else { String::new() };
            (
                m.name.as_str(),
                format!(
                    "{}:{{\"value\":{},\"unit\":{}{n}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(m.unit)
                ),
            )
        })
        .collect();
    body.sort();
    let body: Vec<String> = body.into_iter().map(|(_, v)| v).collect();
    format!("{{{}}}", body.join(","))
}

/// Run `--short`: each workload once at reduced size, traced, every check on.
pub fn short(names: &[&str], seed: u64) -> Tally {
    let mut tally = Tally::default();
    for name in names {
        let w = workload::by_name(name, true).expect("known workload");
        let r = round(&w, seed, true, &mut tally);
        let layer = per_layer(&[&r], &[&r], &spans::take());
        eprintln!(
            "{name}: {} per-layer metrics, engine {:.0} ev/s, ingest {:.0} ev/s, {} failed of {} so far",
            layer.len(),
            r.batch.engine_eps,
            r.serve.ingest_eps,
            tally.failed,
            tally.attempted
        );
    }
    tally
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("psnbench: {e}");
            eprintln!(
                "usage: psnbench --workload <{}> --seed N --seconds S --trace 0|1 | --short",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.short {
        let names: Vec<&str> = if args.workload.is_empty() {
            workload::NAMES.to_vec()
        } else {
            vec![args.workload.as_str()]
        };
        let tally = short(&names, args.seed);
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"notes\":{:?}}}",
            tally.wrong == 0,
            tally.attempted,
            tally.failed,
            tally.notes
        );
        std::process::exit(if tally.failed == 0 { 0 } else { 1 });
    }
    let mut w = workload::by_name(&args.workload, false).expect("checked by parse_args");
    if let Some(n) = args.events {
        match &mut w.synthetic_events {
            Some(events) => *events = n,
            None => w.max_events = n,
        }
    }
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut last_round_s = 0.0;
    loop {
        // A traced run alternates untraced and traced rounds.
        let traced = args.trace && rounds.len() % 2 == 1;
        let t = Instant::now();
        let r = round(&w, args.seed, traced, &mut tally);
        last_round_s = f64::max(last_round_s, t.elapsed().as_secs_f64());
        eprintln!(
            "round {} ({}): {:.3} s; setup {:.4} s, scenario {:.3} s, sharded {:.3} s, ingest {:.0} ev/s, restore {:.3} s, peak rss {:.0} MB",
            rounds.len() + 1,
            if traced { "traced" } else { "untraced" },
            t.elapsed().as_secs_f64(),
            r.setup_s,
            r.batch.scenario_s,
            r.batch.sharded_s,
            r.serve.ingest_eps,
            r.serve.restore_s,
            peak_rss_mb()
        );
        rounds.push((traced, r));
        let enough = rounds.len() >= w.min_rounds.max(if args.trace { 2 } else { 1 });
        if enough && start.elapsed().as_secs_f64() + last_round_s > args.seconds {
            break;
        }
    }
    spans::set_enabled(false);
    let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let metrics = if args.trace {
        let all = spans::take();
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        if let Err(e) = spans::write_jsonl(&path, &all) {
            eprintln!("psnbench: cannot write {}: {e}", path.display());
        }
        per_layer(&traced, &untraced, &all)
    } else {
        match end_to_end(&untraced) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("psnbench: {e}");
                std::process::exit(1);
            }
        }
    };
    for n in &tally.notes {
        eprintln!("psnbench: check failed: {n}");
    }
    let f1: Vec<String> = rounds.iter().map(|(_, r)| format!("{:.4}", r.batch.f1)).collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"rounds\":{},\"host\":{},\"relational_f1\":[{}],\"metrics\":{}}}",
        json_str(w.name),
        args.seed,
        u8::from(args.trace),
        rounds.len(),
        fingerprint(),
        f1.join(","),
        metrics_json(&metrics, true)
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics, false)
    );
}

#[cfg(test)]
mod tests {
    /// The short mode: every workload once, every check and probe, no
    /// failed operation.
    #[test]
    fn short_mode_passes_every_check() {
        let tally = super::short(&super::workload::NAMES, 5);
        assert!(tally.attempted > 0);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
    }
}
