//! The three workloads: what each one feeds the program, built from the seed.
//!
//! Every workload is an exhibition hall written as a `.psn` program with
//! the same two predicates: the relational occupancy predicate and a
//! 2-conjunct conjunctive one. The halls take their timeline from the
//! compiled world; `serve-ingest` compiles a 16-door hall for its layout
//! and predicates and replaces the timeline with a generated stream whose
//! over-capacity episodes are known in advance.

use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{ExhibitionParams, ATTR_X, ATTR_Y};
use psn_world::{AttrKey, AttrValue, WorldEvent};

/// Upper bound of the network delay every workload runs under; the lower
/// bound (40 ms) is the sharded engine's lookahead.
pub const DELTA_MAX_MS: u64 = 240;

/// Hold-back of the streaming detectors: just over 2Δ.
pub fn hold_back() -> SimDuration {
    SimDuration::from_millis(2 * DELTA_MAX_MS + 1)
}

/// Gap between consecutive events of the generated `serve-ingest` stream.
const SYNTH_GAP_MS: u64 = 100;

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub world: ExhibitionParams,
    /// `serve-ingest` only: length of the generated ingest stream.
    pub synthetic_events: Option<usize>,
    /// The timeline is cut to its first this many events, so that every
    /// seed gives a run of the same size.
    pub max_events: usize,
    /// At most this many events of the timeline go over the wire per round.
    pub serve_events: usize,
    /// Ingest frames per pipelined window (each window ends with an Advance).
    pub window: usize,
    /// Windows between two periodic Status probes.
    pub status_every: usize,
    /// Rounds a run makes even when its time is up, so that it collects
    /// enough Advance samples for a p99.
    pub min_rounds: usize,
}

pub const NAMES: [&str; 3] = ["serve-ingest", "hall-batch", "wide-hall"];

/// The workload called `name`, at full size or at the reduced size the
/// short mode and the tests use.
pub fn by_name(name: &str, short: bool) -> Option<Workload> {
    let secs = SimTime::from_secs;
    let w = match name {
        "serve-ingest" => Workload {
            name: "serve-ingest",
            world: ExhibitionParams {
                doors: 16,
                arrival_rate_hz: 1.0,
                mean_stay: SimDuration::from_secs(60),
                duration: secs(2),
                capacity: 200,
            },
            synthetic_events: Some(if short { 2_000 } else { 12_000 }),
            max_events: usize::MAX,
            serve_events: usize::MAX,
            window: 64,
            status_every: 4,
            min_rounds: if short { 1 } else { 6 },
        },
        "hall-batch" => Workload {
            name: "hall-batch",
            world: ExhibitionParams {
                doors: 7,
                arrival_rate_hz: 20.0,
                mean_stay: SimDuration::from_secs(30),
                duration: secs(if short { 120 } else { 1_000 }),
                capacity: 600,
            },
            synthetic_events: None,
            max_events: usize::MAX,
            serve_events: if short { 800 } else { 16_000 },
            window: 4,
            status_every: 16,
            min_rounds: if short { 1 } else { 2 },
        },
        "wide-hall" => Workload {
            name: "wide-hall",
            world: ExhibitionParams {
                doors: 1024,
                arrival_rate_hz: 20.0,
                mean_stay: SimDuration::from_secs(60),
                duration: secs(if short { 5 } else { 25 }),
                capacity: 300,
            },
            synthetic_events: None,
            max_events: if short { usize::MAX } else { 500 },
            serve_events: usize::MAX,
            window: 2,
            status_every: 8,
            min_rounds: if short { 1 } else { 5 },
        },
        _ => return None,
    };
    Some(w)
}

/// The workload's `.psn` program for `seed`.
pub fn source(w: &Workload, seed: u64) -> String {
    let p = &w.world;
    format!(
        r#"scenario "{name}" {{
    seed {seed}
    world exhibition {{
        doors {doors}
        arrival_rate_hz {rate:?}
        mean_stay {stay}ms
        duration {duration}ms
        capacity {capacity}
    }}
    network {{ delay uniform 40ms..{dmax}ms }}
    predicate "over-capacity" relational {{
        sum(d in 0..doors)(door[d].x - door[d].y) > capacity
    }}
    predicate "doors-0-1-inflow" conjunctive {{
        at 0: door[0].x - door[0].y > 2
        at 1: door[1].x - door[1].y > 2
    }}
}}
"#,
        name = w.name,
        doors = p.doors,
        rate = p.arrival_rate_hz,
        stay = p.mean_stay.as_nanos() / 1_000_000,
        duration = p.duration.as_nanos() / 1_000_000,
        capacity = p.capacity,
        dmax = DELTA_MAX_MS,
    )
}

/// splitmix64: the generated stream's only randomness.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The generated `serve-ingest` stream and the number of over-capacity
/// episodes in it.
pub struct Synthetic {
    pub events: Vec<WorldEvent>,
    pub episodes: usize,
}

/// Builds the stream one entry or exit at a time.
struct Gen {
    rng: Mix,
    x: Vec<i64>,
    y: Vec<i64>,
    level: i64,
    events: Vec<WorldEvent>,
}

impl Gen {
    fn step(&mut self, enter: bool) {
        let d = self.rng.below(self.x.len() as u64) as usize;
        let (attr, count) = if enter {
            self.x[d] += 1;
            (ATTR_X, self.x[d])
        } else {
            self.y[d] += 1;
            (ATTR_Y, self.y[d])
        };
        self.level += if enter { 1 } else { -1 };
        let id = self.events.len();
        self.events.push(WorldEvent {
            id,
            at: SimTime::from_millis(SYNTH_GAP_MS * (id as u64 + 1)),
            key: AttrKey::new(d, attr),
            value: AttrValue::Int(count),
            caused_by: Vec::new(),
        });
    }

    /// Straight to `target`: only entries, or only exits.
    fn go_to(&mut self, target: i64) {
        while self.level != target {
            self.step(self.level < target);
        }
    }

    /// A random walk held within `mid ± half` for `len` events.
    fn wander(&mut self, mid: i64, half: i64, len: usize) {
        for _ in 0..len {
            let enter = if self.level >= mid + half {
                false
            } else if self.level <= mid - half {
                true
            } else {
                self.rng.below(2) == 0
            };
            self.step(enter);
        }
    }
}

/// Entries and exits through `doors` doors, one every 100 ms. Occupancy
/// wanders 25–55 below `capacity`; in each episode it rises straight to
/// `capacity + 12`, wanders within ±4 of that for 24 events (2.4 s) and
/// falls straight back. Every crossing is monotone and crossings are
/// seconds apart, far beyond 2Δ = 480 ms, so no reordering the network can
/// cause changes the number of occurrences: exactly `episodes`.
pub fn synthetic(doors: usize, capacity: i64, target_events: usize, seed: u64) -> Synthetic {
    let mut g = Gen {
        rng: Mix(seed ^ 0x05EE_D05E),
        x: vec![0; doors],
        y: vec![0; doors],
        level: 0,
        events: Vec::with_capacity(target_events + 256),
    };
    let (base, high) = (capacity - 40, capacity + 12);
    g.go_to(base);
    let mut episodes = 0;
    while g.events.len() < target_events {
        g.wander(base, 15, 40);
        g.go_to(high);
        g.wander(high, 4, 24);
        g.go_to(base);
        episodes += 1;
    }
    Synthetic { events: g.events, episodes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_stream_has_its_episodes_and_is_seeded() {
        let a = synthetic(16, 200, 3_000, 7);
        let b = synthetic(16, 200, 3_000, 7);
        let c = synthetic(16, 200, 3_000, 8);
        assert_eq!(a.events, b.events);
        assert_ne!(a.events, c.events);
        // Recount the episodes from the occupancy the stream produces.
        let (mut level, mut above, mut rises) = (0i64, false, 0);
        for e in &a.events {
            level += if e.key.attr == ATTR_X { 1 } else { -1 };
            if level > 200 && !above {
                rises += 1;
            }
            above = level > 200;
        }
        assert_eq!(rises, a.episodes);
        assert!(a.episodes >= 15, "{} episodes", a.episodes);
    }

    #[test]
    fn every_workload_compiles() {
        for name in NAMES {
            let w = by_name(name, true).expect("known workload");
            let c = psn_lang::compile(&source(&w, 3)).expect("workload source compiles");
            assert_eq!(c.scenario.num_processes(), w.world.doors);
            assert_eq!(c.predicates.len(), 2);
        }
    }
}
