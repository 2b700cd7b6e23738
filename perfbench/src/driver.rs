//! The benchmark's engine driver: one round = fresh machine, freshly
//! mounted storage, fresh engine, the workload's arrivals, drain, counters,
//! shutdown. Written on the public `Engine` API (not `harness::run_batch` /
//! `run_service`) so that spans wrap the individual calls and the counters,
//! CPU breakdown and result rows stay reachable.

use std::sync::Arc;
use std::time::Instant;

use workshare_common::value::Row;
use workshare_common::StarQuery;
use workshare_core::{Dataset, Engine, Outcome, ShedReason, Ticket};
use workshare_sim::{CpuBreakdown, DiskStats, Machine, SimCtx};

use crate::metrics::process_cpu_secs;
use crate::trace::span;
use crate::workload::{Arrivals, Workload};

/// Engine-side counters of one round, read after the drain.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub cpu: CpuBreakdown,
    pub busy_core_secs: f64,
    pub disk: DiskStats,
    pub pool: (u64, u64),
    pub fs: (u64, u64),
    pub cjoin_admitted: u64,
    pub cjoin_admission_batches: u64,
    pub cjoin_admission_dim_rows: u64,
    pub cjoin_sp_shares: u64,
    pub fabric_windows: u64,
    pub fabric_cross_stage_windows: u64,
    pub fabric_merged_requests: u64,
    pub fabric_dim_pages: u64,
    pub qpipe_queries: u64,
    pub qpipe_scan_hosts: u64,
    pub qpipe_scan_satellites: u64,
    pub qpipe_join_satellites: u64,
    pub qpipe_result_satellites: u64,
    pub routed_shared: u64,
    pub routed_query_centric: u64,
    pub governor_flips: u64,
    pub shared_residual: f64,
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub submitted: u64,
    /// Admitted and finished inside the window (all of them for batches).
    pub completed: u64,
    /// Admitted and finished after the open-loop window closed.
    pub late: u64,
    pub shed_queue_full: u64,
    pub shed_deadline: u64,
    pub errors: u64,
    /// Virtual latency of every successful query, seconds: from submission
    /// for batches (as `harness::run_batch` reports it), from the due time
    /// for open-loop arrivals.
    pub latencies: Vec<f64>,
    /// Largest open-loop submission lag behind the due time, virtual ns.
    pub max_lag_ns: f64,
    /// Virtual span of the round: batch makespan, or round start → last
    /// completion for open-loop arrivals.
    pub span_secs: f64,
    /// Wall time of arrivals + drain (the timed region), seconds.
    pub wall_secs: f64,
    /// Process CPU (user + system, all threads) over the timed region.
    pub cpu_secs: f64,
    /// Set-up, wall seconds: dataset generation (timed by the caller),
    /// mount, `Engine::new`.
    pub generate_secs: f64,
    pub instantiate_secs: f64,
    pub engine_new_secs: f64,
    pub shutdown_secs: f64,
    /// Result rows of the queries selected for the correctness check.
    pub checked: Vec<(usize, Arc<Vec<Row>>)>,
    pub counters: Counters,
}

impl Round {
    /// Every submission ended in exactly one outcome.
    pub fn is_conserved(&self) -> bool {
        self.submitted
            == self.completed + self.late + self.shed_queue_full + self.shed_deadline + self.errors
    }

    /// Successful queries (in-window and late).
    pub fn succeeded(&self) -> u64 {
        self.completed + self.late
    }
}

/// Run one round of `w` over `dataset`. `keep[i]` selects query `i`'s rows
/// for the correctness check; `due_ns` is ignored for batch workloads.
pub fn run_round(
    w: &Workload,
    dataset: &Dataset,
    queries: Arc<Vec<StarQuery>>,
    due_ns: Arc<Vec<f64>>,
    keep: Arc<Vec<bool>>,
    parent: u64,
) -> Round {
    let cfg = w.config();
    let machine = Machine::new(cfg.machine_config());
    let t = Instant::now();
    let storage = {
        let _s = span("storage.instantiate", 0, parent);
        dataset.instantiate(cfg.storage_config(), cfg.cost)
    };
    let instantiate_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engine = {
        let _s = span("core.engine_new", 0, parent);
        Engine::new(&machine, &storage, &cfg, "lineorder")
    };
    let engine_new_secs = t.elapsed().as_secs_f64();

    let cpu0 = machine.cpu_breakdown();
    let disk0 = machine.disk_stats();
    let busy0 = machine.busy_core_secs();
    let start_ns = machine.now_ns();
    let load = Load {
        engine: engine.clone(),
        queries,
        due_ns,
        keep,
        parent,
    };
    let cpu = process_cpu_secs();
    let wall = Instant::now();
    let mut round = match w.arrivals {
        Arrivals::Batch { .. } => {
            let mut r = machine
                .spawn("perfbench-batch", move |_ctx| batch(&load))
                .join()
                .expect("batch driver vthread panicked");
            r.span_secs = (machine.now_ns() - start_ns) / 1e9;
            r
        }
        Arrivals::Open {
            window_secs,
            clients,
            ..
        } => machine
            .spawn("perfbench-clients", move |ctx| {
                open_loop(ctx, &load, window_secs, clients)
            })
            .join()
            .expect("open-loop driver vthread panicked"),
    };
    round.wall_secs = wall.elapsed().as_secs_f64();
    round.cpu_secs = process_cpu_secs() - cpu;
    round.instantiate_secs = instantiate_secs;
    round.engine_new_secs = engine_new_secs;
    round.counters = read_counters(&machine, &engine, cpu0, disk0, busy0);
    let t = Instant::now();
    {
        let _s = span("core.shutdown", 0, parent);
        engine.shutdown();
    }
    round.shutdown_secs = t.elapsed().as_secs_f64();
    round
}

/// What every driver vthread of a round shares.
#[derive(Clone)]
struct Load {
    engine: Engine,
    queries: Arc<Vec<StarQuery>>,
    due_ns: Arc<Vec<f64>>,
    keep: Arc<Vec<bool>>,
    /// Span parent of the per-query spans.
    parent: u64,
}

impl Load {
    /// Submit query `i` (spanned; `try_submit` when `bounded`).
    fn submit(&self, i: usize, bounded: bool) -> Outcome {
        let q = &self.queries[i];
        let _s = span("core.submit", q.id + 1, self.parent);
        if bounded {
            self.engine.try_submit(q, 0)
        } else {
            Outcome::Admitted(self.engine.submit(q))
        }
    }

    /// Wait for query `i`'s ticket (spanned). Records its rows for the
    /// check when sampled; returns whether it succeeded.
    fn wait(&self, i: usize, t: &Ticket, r: &mut Round) -> bool {
        let rows = {
            let _s = span("core.wait", self.queries[i].id + 1, self.parent);
            t.wait()
        };
        if t.error().is_some() {
            r.errors += 1;
            return false;
        }
        if self.keep[i] {
            r.checked.push((i, rows));
        }
        true
    }
}

/// Simultaneous batch: gate closed, every query submitted, gate opened,
/// then each ticket waited on in submission order — the same call sequence
/// as `harness::run_batch`.
fn batch(load: &Load) -> Round {
    let mut r = Round::default();
    load.engine.close_gate();
    let tickets: Vec<Ticket> = (0..load.queries.len())
        .map(|i| match load.submit(i, false) {
            Outcome::Admitted(t) => t,
            Outcome::Shed { .. } => unreachable!("unbounded submit never sheds"),
        })
        .collect();
    load.engine.open_gate();
    r.submitted = tickets.len() as u64;
    for (i, t) in tickets.iter().enumerate() {
        if load.wait(i, t, &mut r) {
            r.completed += 1;
            r.latencies.push(t.latency_secs());
        }
    }
    r
}

/// Open loop over `clients` client vthreads, each driving [`client`];
/// the round's virtual span runs from its start to the last completion.
fn open_loop(ctx: &SimCtx, load: &Load, window_secs: f64, clients: usize) -> Round {
    let start_ns = ctx.machine().now_ns();
    let window_end_ns = start_ns + window_secs * 1e9;
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let load = load.clone();
            ctx.machine()
                .spawn(&format!("perfbench-client-{c}"), move |ctx| {
                    client(ctx, &load, c, clients, start_ns, window_end_ns)
                })
        })
        .collect();
    let mut total = Round::default();
    let mut last_finish_ns = start_ns;
    for w in workers {
        let (r, finish_ns) = w.join().expect("client vthread panicked");
        last_finish_ns = last_finish_ns.max(finish_ns);
        total.submitted += r.submitted;
        total.completed += r.completed;
        total.late += r.late;
        total.shed_queue_full += r.shed_queue_full;
        total.shed_deadline += r.shed_deadline;
        total.errors += r.errors;
        total.latencies.extend(r.latencies);
        total.max_lag_ns = total.max_lag_ns.max(r.max_lag_ns);
        total.checked.extend(r.checked);
    }
    total.span_secs = (last_finish_ns - start_ns) / 1e9;
    total
}

/// Client `c` owns arrivals `c, c + clients, …`: it sleeps to each due
/// time and calls `try_submit` without waiting, then drains its admitted
/// tickets. Latency is timed from the due time. Returns its tally and its
/// last completion time.
fn client(
    ctx: &SimCtx,
    load: &Load,
    c: usize,
    clients: usize,
    start_ns: f64,
    window_end_ns: f64,
) -> (Round, f64) {
    let mut r = Round::default();
    let mut admitted = Vec::new();
    for i in (c..load.queries.len()).step_by(clients) {
        let due = start_ns + load.due_ns[i];
        let now = ctx.machine().now_ns();
        if due > now {
            ctx.sleep(due - now);
        }
        r.max_lag_ns = r.max_lag_ns.max(ctx.machine().now_ns() - due);
        r.submitted += 1;
        match load.submit(i, true) {
            Outcome::Admitted(t) => admitted.push((i, due, t)),
            Outcome::Shed {
                reason: ShedReason::QueueFull,
            } => r.shed_queue_full += 1,
            Outcome::Shed {
                reason: ShedReason::Deadline,
            } => r.shed_deadline += 1,
        }
    }
    let mut last_finish_ns = start_ns;
    for (i, due, t) in admitted {
        if !load.wait(i, &t, &mut r) {
            continue;
        }
        let finish = t.finish_ns();
        last_finish_ns = last_finish_ns.max(finish);
        if finish <= window_end_ns {
            r.completed += 1;
        } else {
            r.late += 1;
        }
        r.latencies.push((finish - due) / 1e9);
    }
    (r, last_finish_ns)
}

fn read_counters(
    machine: &Machine,
    engine: &Engine,
    cpu0: CpuBreakdown,
    disk0: DiskStats,
    busy0: f64,
) -> Counters {
    let mut c = Counters {
        cpu: machine.cpu_breakdown().delta(&cpu0),
        busy_core_secs: machine.busy_core_secs() - busy0,
        disk: machine.disk_stats().delta(&disk0),
        pool: engine.storage().pool_stats(),
        fs: engine.storage().fs_stats(),
        ..Counters::default()
    };
    if let Some(s) = engine.cjoin_stats() {
        c.cjoin_admitted = s.admitted;
        c.cjoin_admission_batches = s.admission_batches;
        c.cjoin_admission_dim_rows = s.admission_dim_rows;
        c.cjoin_sp_shares = s.sp_shares;
    }
    if let Some(f) = engine.fabric_stats() {
        c.fabric_windows = f.batches;
        c.fabric_cross_stage_windows = f.cross_stage_batches;
        c.fabric_merged_requests = f.merged_requests;
        c.fabric_dim_pages = f.admission_dim_pages;
    }
    if let Some(q) = engine.qpipe_sharing() {
        c.qpipe_scan_hosts = q.scan_hosts;
        c.qpipe_scan_satellites = q.scan_satellites;
        c.qpipe_join_satellites = q.join_satellites_by_level.iter().sum();
        c.qpipe_result_satellites = q.result_satellites;
    }
    if let Some(g) = engine.governor_stats() {
        c.routed_shared = g.routed_shared;
        c.routed_query_centric = g.routed_query_centric;
        c.governor_flips = g.flips;
        c.shared_residual = g.shared_residual;
        // Shared-routed queries that no CJOIN stage served ran on QPipe.
        let staged: u64 = engine.stage_rows().iter().map(|s| s.shared_queries).sum();
        c.qpipe_queries = g.routed_shared.saturating_sub(staged);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use workshare_core::harness::{run_batch_on, RunReport};
    use workshare_core::{NamedConfig, RunConfig};

    /// One storm round at a small scale through the driver and through
    /// `harness::run_batch_on`, on `config`.
    fn both(config: RunConfig) -> (Round, RunReport) {
        let w = Workload::by_name("storm")
            .expect("storm workload")
            .with_config(config);
        let dataset = Dataset::ssb_two_facts(0.05, 3);
        let queries = w.queries(3, 0);
        let keep = vec![false; queries.len()];
        let ours = run_round(
            &w,
            &dataset,
            Arc::new(queries.clone()),
            Arc::new(Vec::new()),
            Arc::new(keep),
            0,
        );
        let theirs = run_batch_on(&dataset, &config, "lineorder", &queries, false);
        (ours, theirs)
    }

    /// On a path whose virtual time is deterministic (QPipe-SP), the batch
    /// driver reproduces `run_batch` exactly: same call sequence, so the
    /// same per-query latencies and the same makespan.
    #[test]
    fn batch_round_reproduces_run_batch_exactly() {
        let (ours, theirs) = both(RunConfig::named(NamedConfig::QpipeSp));
        assert!(ours.is_conserved() && ours.errors == 0);
        assert_eq!(ours.latencies, theirs.latencies_secs);
        assert_eq!(ours.span_secs, theirs.makespan_secs);
    }

    /// On storm's own configuration the CJOIN path lets OS thread order leak
    /// into virtual time, so two `run_batch` calls already differ by a few
    /// percent per query; the driver must agree with the harness as closely.
    #[test]
    fn batch_round_matches_run_batch_on_the_storm_config() {
        let config = Workload::by_name("storm").expect("storm workload").config();
        let (ours, theirs) = both(config);
        assert!(ours.is_conserved() && ours.errors == 0);
        assert_eq!(ours.latencies.len(), theirs.latencies_secs.len());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let rel = |a: f64, b: f64| (a - b).abs() / b;
        assert!(rel(mean(&ours.latencies), theirs.mean_latency_secs()) < 0.03);
        assert!(rel(ours.span_secs, theirs.makespan_secs) < 0.05);
    }
}
