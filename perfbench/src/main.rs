//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! perfbench --workload <storm|farm|stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's dataset and queries from `--seed`, sets up
//! several times (the `setup_s` median), then runs rounds — a fresh
//! machine, storage mount and engine each — until `--seconds` of wall time
//! have passed. Every round's sampled results are checked against the
//! Volcano oracle outside the timed region. The last stdout line is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1` (spans written to `.bench_out/`). See
//! `perfbench/README.md` for the workloads, clocks and metric map.

mod check;
mod driver;
mod metrics;
mod replay;
mod trace;
mod workload;

use std::sync::Arc;
use std::time::Instant;

use workshare_core::Dataset;
use workshare_sim::{CostKind, COST_KINDS};

use driver::Round;
use metrics::{median, quantile, tail_quantile, Values, END_TO_END, PER_LAYER};
use trace::span;
use workload::Workload;

/// Share of the round budget whose rounds are warm-up for the wall-clock
/// per-query metrics: the process's thread-stack and heap mappings grow
/// over its first seconds, and per-round CPU rises by up to ~30 % until
/// they plateau. Virtual metrics use every round.
const WARMUP_SHARE: f64 = 0.3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
    })
}

/// Rounds of one run plus everything the metrics are computed from.
#[derive(Default)]
struct Totals {
    rounds: Vec<Round>,
    /// Per round: whether spans were recorded.
    traced: Vec<bool>,
    /// Per round: whether it started inside the warm-up share of the budget.
    warmup: Vec<bool>,
    mismatches: u64,
    conserved: bool,
    /// `VmHWM` after the first round's set-up and drain.
    peak_rss_mb: f64,
}

impl Totals {
    /// Median over the measured rounds of `f(round) / successful queries`.
    /// Measured rounds are those with `traced` tracing that started after
    /// the warm-up share of the budget, or every such round if none did.
    fn per_query(&self, traced: bool, f: impl Fn(&Round) -> f64) -> f64 {
        let pick = |after_warmup: bool| -> Vec<f64> {
            self.rounds
                .iter()
                .zip(self.traced.iter().zip(&self.warmup))
                .filter(|(r, (&tr, &warm))| {
                    tr == traced && (!after_warmup || !warm) && r.succeeded() > 0
                })
                .map(|(r, _)| f(r) / r.succeeded() as f64)
                .collect()
        };
        let measured = pick(true);
        median(if measured.is_empty() {
            pick(false)
        } else {
            measured
        })
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    trace::set_enabled(args.trace);
    let root = span("run", 0, 0);

    // Rounds until the wall budget is spent. Every round sets up afresh —
    // generate, mount, build the engine — so setup_s is a median over set-ups
    // spread across the whole run. In a traced run, rounds alternate traced
    // / untraced so the tracing overhead is measured on the same work.
    let mut t = Totals {
        conserved: true,
        ..Totals::default()
    };
    let budget = if args.trace {
        args.seconds * 0.75
    } else {
        args.seconds
    };
    let started = Instant::now();
    let min_rounds = if args.trace { 2 } else { 1 };
    let mut last_queries = Vec::new();
    let mut dataset: Option<Dataset> = None;
    let mut oracle: Option<check::Oracle> = None;
    while t.rounds.len() < min_rounds || started.elapsed().as_secs_f64() < budget {
        let r = t.rounds.len() as u64;
        let traced = args.trace && r.is_multiple_of(2);
        let warmup = started.elapsed().as_secs_f64() < budget * WARMUP_SHARE;
        trace::set_enabled(traced);
        let queries = Arc::new(w.queries(args.seed, r));
        let keep = Arc::new(check::sample(&queries, w.check_every));
        let due = Arc::new(w.due_ns(args.seed, r));
        // At most one dataset is alive at a time.
        drop(dataset.take());
        let round = {
            let s = span("round", 0, root.id());
            let generate = Instant::now();
            let data = {
                let _g = span("datagen.generate", 0, s.id());
                w.dataset(args.seed)
            };
            let generate_secs = generate.elapsed().as_secs_f64();
            let mut round = driver::run_round(&w, &data, queries.clone(), due, keep, s.id());
            round.generate_secs = generate_secs;
            dataset = Some(data);
            round
        };
        trace::set_enabled(args.trace);
        if t.rounds.is_empty() {
            // Later rounds repeat the same work; how far the allocator's
            // high-water mark creeps over them is noise, not workload size.
            // Read before the first check: the oracle is not the system
            // under test.
            t.peak_rss_mb = metrics::peak_rss_mb();
        }
        {
            let _s = span("check.volcano", 0, root.id());
            let data = dataset.as_ref().expect("generated this round");
            let oracle = oracle.get_or_insert_with(|| check::Oracle::new(data));
            t.mismatches += oracle.count_mismatches(&queries, &round.checked);
        }
        println!(
            "round {r} traced={traced} wall_s={:.4} cpu_s={:.3} succeeded={} span_ms={:.3} \
             os_threads={} rss_mb={:.1}",
            round.wall_secs,
            round.cpu_secs,
            round.succeeded(),
            round.span_secs * 1e3,
            metrics::os_threads(),
            metrics::rss_mb()
        );
        t.conserved &= round.is_conserved();
        t.rounds.push(round);
        t.traced.push(traced);
        t.warmup.push(warmup);
        last_queries = Arc::try_unwrap(queries).unwrap_or_else(|q| (*q).clone());
    }

    let rounds = &t.rounds;
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let submitted = sum(&|r| r.submitted as f64) as u64;
    let succeeded = sum(&|r| r.succeeded() as f64);
    let shed = sum(&|r| (r.shed_queue_full + r.shed_deadline) as f64) as u64;
    let errors = sum(&|r| r.errors as f64) as u64;
    let failed = shed + errors + t.mismatches;
    let checked = sum(&|r| r.checked.len() as f64) as u64;
    let correct = t.mismatches == 0 && errors == 0 && t.conserved && succeeded > 0.0;
    let span_secs = sum(&|r| r.span_secs);
    let mut lats: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let within = lats.iter().filter(|&&l| l <= w.limit_secs).count() as f64;
    let tail_q = tail_quantile(lats.len());
    let wall_ms = t.per_query(false, |r| r.wall_secs * 1e3);
    let max_lag_ns = rounds.iter().map(|r| r.max_lag_ns).fold(0.0, f64::max);

    let mut v = Values::default();
    v.set(
        "setup_s",
        median(
            rounds
                .iter()
                .map(|r| r.generate_secs + r.instantiate_secs + r.engine_new_secs)
                .collect(),
        ),
    );
    v.set("lat_p50_ms", quantile(&mut lats, 0.5) * 1e3);
    v.set("lat_p99_ms", quantile(&mut lats, tail_q) * 1e3);
    v.set("throughput_qps", succeeded / span_secs);
    v.set("goodput_qps", within / span_secs);
    v.set("ok_frac", 1.0 - failed as f64 / submitted.max(1) as f64);
    v.set("cpu_ms_per_query", t.per_query(false, |r| r.cpu_secs * 1e3));
    v.set("peak_rss_mb", t.peak_rss_mb);
    v.set("wall_ms_per_query", wall_ms);

    println!(
        "perfbench {} seed={} rounds={} submitted={} succeeded={} late={} shed={} errors={} \
         checked={} mismatches={} conserved={} latency_samples={} tail_percentile={:.4} \
         limit_ms={} max_lag_ns={:.3}",
        w.name,
        args.seed,
        rounds.len(),
        submitted,
        succeeded,
        sum(&|r| r.late as f64),
        shed,
        errors,
        checked,
        t.mismatches,
        t.conserved,
        lats.len(),
        tail_q,
        w.limit_secs * 1e3,
        max_lag_ns,
    );

    if args.trace {
        let dataset = dataset.expect("at least one round");
        per_layer(&mut v, &w, &dataset, &last_queries, &t, root.id());
        drop(root);
        let spans = trace::drain();
        for (name, (count, total, self_ns)) in trace::summary(&spans) {
            println!(
                "span {name}: count={count} total_ms={:.3} self_ms={:.3}",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
        let path =
            std::path::PathBuf::from(format!(".bench_out/trace-{}-{}.json", w.name, args.seed));
        if let Err(e) = trace::write_json(&path, &spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        println!("{}", v.result_line(PER_LAYER, correct, submitted, failed));
    } else {
        println!("{}", v.result_line(END_TO_END, correct, submitted, failed));
    }
    if !correct {
        eprintln!(
            "perfbench: correctness check failed (mismatches={}, errors={errors}, conserved={})",
            t.mismatches, t.conserved
        );
        std::process::exit(1);
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(
    v: &mut Values,
    w: &Workload,
    dataset: &Dataset,
    queries: &[workshare_common::StarQuery],
    t: &Totals,
    parent: u64,
) {
    let rounds = &t.rounds;
    let n = rounds.len() as f64;
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let avg = |f: &dyn Fn(&Round) -> f64| sum(f) / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    for kind in COST_KINDS {
        let name = match kind {
            CostKind::Scan => "sim.cpu_scan_s",
            CostKind::Select => "sim.cpu_select_s",
            CostKind::Hashing => "sim.cpu_hashing_s",
            CostKind::Join => "sim.cpu_join_s",
            CostKind::Aggregation => "sim.cpu_aggregation_s",
            CostKind::Sort => "sim.cpu_sort_s",
            CostKind::Copy => "sim.cpu_copy_s",
            CostKind::Locks => "sim.cpu_locks_s",
            CostKind::Admission => "sim.cpu_admission_s",
            CostKind::Routing => "sim.cpu_routing_s",
            CostKind::Misc => "sim.cpu_misc_s",
        };
        v.set(name, avg(&|r| r.counters.cpu.secs(kind)));
    }
    v.set(
        "sim.avg_cores_used",
        ratio(sum(&|r| r.counters.busy_core_secs), sum(&|r| r.span_secs)),
    );
    v.set("sim.charge_event_ns", replay::charge_event_ns(parent));
    v.set("sim.handoff_ns", replay::handoff_ns(parent));

    let hits = |p: fn(&Round) -> (u64, u64)| {
        let (h, m) = rounds
            .iter()
            .map(p)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        ratio(h as f64, (h + m) as f64)
    };
    v.set("storage.pool_hit_ratio", hits(|r| r.counters.pool));
    v.set("storage.fs_hit_ratio", hits(|r| r.counters.fs));
    v.set(
        "storage.disk_bytes_read",
        avg(&|r| r.counters.disk.bytes_read as f64),
    );
    v.set(
        "storage.disk_requests",
        avg(&|r| r.counters.disk.requests as f64),
    );
    v.set(
        "storage.disk_busy_s",
        avg(&|r| r.counters.disk.busy_ns / 1e9),
    );
    v.set(
        "storage.read_page_us",
        replay::read_page_us(w, dataset, parent),
    );
    let med = |f: fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    v.set("storage.instantiate_s", med(|r| r.instantiate_secs));
    v.set("datagen.generate_s", med(|r| r.generate_secs));

    let fact = replay::FactSample::new(dataset);
    v.set(
        "common.decode_ns_per_row",
        replay::decode_ns_per_row(&fact, parent),
    );
    v.set(
        "common.pred_eval_ns_per_row",
        replay::pred_eval_ns_per_row(dataset, &fact, queries, parent),
    );

    let c = |f: fn(&driver::Counters) -> u64| avg(&|r| f(&r.counters) as f64);
    v.set("cjoin.admitted", c(|c| c.cjoin_admitted));
    v.set("cjoin.admission_batches", c(|c| c.cjoin_admission_batches));
    v.set(
        "cjoin.admission_dim_rows",
        c(|c| c.cjoin_admission_dim_rows),
    );
    v.set("cjoin.fabric_windows", c(|c| c.fabric_windows));
    v.set(
        "cjoin.fabric_cross_stage_windows",
        c(|c| c.fabric_cross_stage_windows),
    );
    v.set("cjoin.fabric_dim_pages", c(|c| c.fabric_dim_pages));
    v.set(
        "cjoin.requests_per_window",
        ratio(c(|c| c.fabric_merged_requests), c(|c| c.fabric_windows)),
    );
    v.set(
        "cjoin.sp_share_ratio",
        ratio(c(|c| c.cjoin_sp_shares), c(|c| c.cjoin_admitted)),
    );
    v.set(
        "cjoin.filter_ns_per_page",
        replay::filter_ns_per_page(dataset, &fact, queries, w.filter_width, parent),
    );

    v.set("qpipe.queries", c(|c| c.qpipe_queries));
    let (hosts, sats) = (c(|c| c.qpipe_scan_hosts), c(|c| c.qpipe_scan_satellites));
    v.set("qpipe.scan_share_ratio", ratio(sats, hosts + sats));
    v.set("qpipe.join_satellites", c(|c| c.qpipe_join_satellites));
    v.set("qpipe.result_satellites", c(|c| c.qpipe_result_satellites));

    let mut submit_us: Vec<f64> = trace::durations("core.submit")
        .into_iter()
        .map(|ns| ns / 1e3)
        .collect();
    v.set("core.submit_us_p50", quantile(&mut submit_us, 0.5));
    let tail = tail_quantile(submit_us.len());
    v.set("core.submit_us_p99", quantile(&mut submit_us, tail));
    v.set(
        "core.governor_decide_ns",
        replay::governor_decide_ns(dataset, queries, w.filter_width, w.config().cores, parent),
    );
    v.set("core.routed_shared", c(|c| c.routed_shared));
    v.set("core.routed_query_centric", c(|c| c.routed_query_centric));
    v.set("core.governor_flips", c(|c| c.governor_flips));
    v.set("core.shared_residual", avg(&|r| r.counters.shared_residual));
    v.set("core.shed_queue_full", avg(&|r| r.shed_queue_full as f64));
    v.set("core.shed_deadline", avg(&|r| r.shed_deadline as f64));
    v.set("core.errors", avg(&|r| r.errors as f64));
    v.set("core.engine_new_s", med(|r| r.engine_new_secs));
    v.set(
        "core.shutdown_s",
        median(rounds.iter().map(|r| r.shutdown_secs).collect()),
    );

    let (on, off) = (
        t.per_query(true, |r| r.wall_secs),
        t.per_query(false, |r| r.wall_secs),
    );
    v.set("trace.overhead_frac", ratio(on - off, off));
}
