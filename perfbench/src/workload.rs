//! The three benchmark workloads: their engine configuration, dataset, and
//! seeded query/arrival generators. The engine only ever sees the queries
//! and arrival times produced here.

use rand::rngs::StdRng;
use rand::Rng;

use workshare_common::StarQuery;
use workshare_core::{workload, Dataset, ExecPolicy, IoMode, RunConfig, ServiceConfig};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Simultaneous batch of high-similarity star queries over two facts.
    Storm,
    /// Open-loop, low-similarity, disk-resident report farm.
    Farm,
    /// Open-loop arrivals at ~0.6× capacity through the bounded front door.
    Stream,
}

/// How queries arrive.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Gate closed, all `queries` submitted, gate opened.
    Batch { queries: usize },
    /// Open loop: exactly `rate × window_secs` arrivals per round with
    /// exponential gaps, split round-robin over `clients` vthreads.
    Open {
        rate: f64,
        window_secs: f64,
        clients: usize,
    },
}

/// A workload's full, fixed description.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// SSB scale factor (1/100-row scale, see `workshare_datagen`).
    pub scale: f64,
    /// Whether the dataset carries the second fact table `lineorder2`.
    pub two_facts: bool,
    pub arrivals: Arrivals,
    /// Virtual latency limit for goodput, seconds.
    pub limit_secs: f64,
    /// Correctness sample stride for open-loop workloads (every k-th query).
    /// Batch workloads check every distinct plan instead.
    pub check_every: usize,
    /// Concurrent queries a shared filter serves (the width of the
    /// `cjoin.filter_ns_per_page` and governor replays).
    pub filter_width: usize,
    config: RunConfig,
}

impl Workload {
    /// Look a workload up by its benchmark name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Some(match name {
            "storm" => Workload::storm(),
            "farm" => Workload::farm(),
            "stream" => Workload::stream(),
            _ => return None,
        })
    }

    /// All workloads, in `BENCHMARK.json` order.
    #[cfg(test)]
    pub fn all() -> [Workload; 3] {
        [Workload::storm(), Workload::farm(), Workload::stream()]
    }

    fn storm() -> Workload {
        let mut config = RunConfig::governed(ExecPolicy::Adaptive);
        config.cores = 24;
        config.io_mode = IoMode::Memory;
        Workload {
            kind: Kind::Storm,
            name: "storm",
            scale: 4.0,
            two_facts: true,
            arrivals: Arrivals::Batch { queries: 256 },
            limit_secs: 0.050,
            check_every: 1,
            filter_width: 256,
            config,
        }
    }

    fn farm() -> Workload {
        let mut config = RunConfig::governed(ExecPolicy::Adaptive);
        config.cores = 8;
        config.io_mode = IoMode::BufferedDisk;
        config.buffer_pool_pages = Some(20);
        Workload {
            kind: Kind::Farm,
            name: "farm",
            scale: 0.5,
            two_facts: false,
            arrivals: Arrivals::Open {
                rate: 400.0,
                window_secs: 0.25,
                clients: 2,
            },
            limit_secs: 0.250,
            // Coprime with the 4-template mix, so every template is checked.
            check_every: 9,
            filter_width: 2,
            config,
        }
    }

    /// The front door is armed (queue cap, deadline, governor SLO mode) but
    /// sized so that nothing is shed: at ~0.6× capacity ~4 queries are in
    /// flight against a cap of 64, and p99 is ~3 ms against a 50 ms deadline.
    /// Every operation succeeds, so a run's failure count is exactly 0.
    fn stream() -> Workload {
        let mut config = RunConfig::governed(ExecPolicy::Adaptive);
        config.cores = 4;
        config.io_mode = IoMode::Memory;
        config.service = ServiceConfig {
            queue_cap: Some(64),
            deadline_secs: Some(0.050),
            ..ServiceConfig::default()
        };
        Workload {
            kind: Kind::Stream,
            name: "stream",
            scale: 0.05,
            two_facts: false,
            arrivals: Arrivals::Open {
                rate: 1500.0,
                window_secs: 0.2,
                clients: 2,
            },
            limit_secs: 0.050,
            check_every: 16,
            filter_width: 8,
            config,
        }
    }

    /// The product configuration every workload runs: governed Adaptive,
    /// faults off, with the workload's machine/storage/service knobs.
    pub fn config(&self) -> RunConfig {
        self.config
    }

    /// The same workload on another engine configuration.
    #[cfg(test)]
    pub fn with_config(mut self, config: RunConfig) -> Workload {
        self.config = config;
        self
    }

    /// Generate the workload's database from `seed`.
    pub fn dataset(&self, seed: u64) -> Dataset {
        let data_seed = mix(seed, 0xda7a);
        if self.two_facts {
            Dataset::ssb_two_facts(self.scale, data_seed)
        } else {
            Dataset::ssb(self.scale, data_seed)
        }
    }

    /// The queries of round `round` of the run seeded `seed`, in submission
    /// order. Storm rounds refresh one dashboard: every round draws its 256
    /// queries from the same 16-plan pool (picked by `seed`); the open-loop
    /// workloads draw fresh random plans each round.
    pub fn queries(&self, seed: u64, round: u64) -> Vec<StarQuery> {
        let round_seed = mix(seed, round + 1);
        match self.kind {
            Kind::Storm => {
                let Arrivals::Batch { queries } = self.arrivals else {
                    unreachable!("storm is a batch workload")
                };
                let mut seen = std::collections::HashSet::new();
                let pool: Vec<StarQuery> =
                    workload::limited_plans(queries, 16, seed, workload::ssb_q3_2_narrow)
                        .into_iter()
                        .filter(|q| seen.insert(q.full_signature()))
                        .collect();
                let mut r = workload::rng(round_seed);
                (0..queries)
                    .map(|i| {
                        let mut q = pool[r.gen_range(0..pool.len())].clone();
                        q.id = i as u64;
                        if i % 2 == 1 {
                            q.fact = "lineorder2".into();
                        }
                        q
                    })
                    .collect()
            }
            Kind::Farm => {
                let mut r = workload::rng(round_seed);
                (0..self.open_count())
                    .map(|i| {
                        let id = i as u64;
                        match i % 4 {
                            0 => fact_only_scan(id, &mut r),
                            1 => workload::ssb_q1_1(id, &mut r),
                            2 => workload::ssb_q2_1(id, &mut r),
                            _ => workload::ssb_q3_2(id, &mut r),
                        }
                    })
                    .collect()
            }
            Kind::Stream => {
                let mut r = workload::rng(round_seed);
                (0..self.open_count())
                    .map(|i| workload::ssb_q3_2_wide(i as u64, &mut r, 12, 12))
                    .collect()
            }
        }
    }

    /// Arrivals per open-loop round (`rate × window`), 0 for batches.
    pub fn open_count(&self) -> usize {
        match self.arrivals {
            Arrivals::Batch { .. } => 0,
            Arrivals::Open {
                rate, window_secs, ..
            } => (rate * window_secs).round() as usize,
        }
    }

    /// Due times (virtual ns after the round starts) of an open-loop round:
    /// exponential gaps drawn from the seed, rescaled so the round offers
    /// exactly `rate × window` queries inside the window (a Poisson process
    /// conditioned on its count), so every round offers the same load.
    pub fn due_ns(&self, seed: u64, round: u64) -> Vec<f64> {
        let Arrivals::Open { window_secs, .. } = self.arrivals else {
            return Vec::new();
        };
        let n = self.open_count();
        let mut r = workload::rng(mix(mix(seed, round + 1), 0xa771));
        let gaps: Vec<f64> = (0..=n).map(|_| -r.gen_range(1e-12..1.0f64).ln()).collect();
        let total: f64 = gaps.iter().sum();
        let mut t = 0.0;
        gaps[..n]
            .iter()
            .map(|g| {
                t += g;
                t / total * window_secs * 1e9
            })
            .collect()
    }
}

/// `ssb_q1_1` with its date join removed: a fact-only scan-aggregate, which
/// the governed engine routes to QPipe circular scans + SP.
fn fact_only_scan(id: u64, r: &mut StdRng) -> StarQuery {
    let mut q = workload::ssb_q1_1(id, r);
    q.dims.clear();
    q
}

/// Derive an independent 64-bit seed from `seed` and a salt (splitmix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigs(qs: &[StarQuery]) -> Vec<u64> {
        qs.iter().map(|q| q.full_signature()).collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for w in Workload::all() {
            assert_eq!(sigs(&w.queries(7, 0)), sigs(&w.queries(7, 0)), "{}", w.name);
            assert_eq!(w.due_ns(7, 0), w.due_ns(7, 0), "{}", w.name);
        }
    }

    #[test]
    fn another_seed_changes_queries_but_not_shape() {
        for w in Workload::all() {
            let (a, b) = (w.queries(1, 0), w.queries(2, 0));
            assert_ne!(
                sigs(&a),
                sigs(&b),
                "{}: seed must change the queries",
                w.name
            );
            assert_eq!(a.len(), b.len(), "{}", w.name);
            let shapes = |qs: &[StarQuery]| -> Vec<(u64, String)> {
                qs.iter()
                    .map(|q| (q.shape_signature(), q.fact.clone()))
                    .collect()
            };
            if w.kind == Kind::Storm {
                // 16 plans drawn at random: same templates and fact split.
                let facts =
                    |qs: &[StarQuery]| qs.iter().map(|q| q.fact.clone()).collect::<Vec<_>>();
                assert_eq!(facts(&a), facts(&b));
                let distinct = |qs: &[StarQuery]| {
                    qs.iter()
                        .map(|q| q.full_signature())
                        .collect::<std::collections::HashSet<_>>()
                        .len()
                };
                assert!(distinct(&a) <= 32 && distinct(&b) <= 32);
            } else {
                assert_eq!(
                    shapes(&a),
                    shapes(&b),
                    "{}: same templates in order",
                    w.name
                );
            }
            let (da, db) = (w.due_ns(1, 0), w.due_ns(2, 0));
            assert_eq!(da.len(), db.len());
            if !da.is_empty() {
                assert_ne!(da, db);
            }
        }
    }

    #[test]
    fn open_loop_arrivals_fill_the_window() {
        for w in Workload::all() {
            let Arrivals::Open { window_secs, .. } = w.arrivals else {
                continue;
            };
            let due = w.due_ns(3, 0);
            assert_eq!(due.len(), w.open_count());
            assert!(due.windows(2).all(|p| p[0] <= p[1]), "sorted");
            assert!(due[0] > 0.0 && *due.last().unwrap() < window_secs * 1e9);
        }
    }

    #[test]
    fn farm_mix_has_a_fact_only_query() {
        let qs = Workload::farm().queries(5, 0);
        assert!(qs[0].dims.is_empty());
        assert_eq!(qs[1].dims.len(), 1);
        assert_eq!(qs[2].dims.len(), 3);
        assert_eq!(qs[3].dims.len(), 3);
    }
}
