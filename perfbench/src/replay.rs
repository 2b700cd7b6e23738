//! Single-threaded wall-clock replays of each layer's public kernels on the
//! workload's own data. Each returns the median over a few timed samples.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use workshare_cjoin::{filter_page_vectorized, DimEntry, FilterCore, FilterScratch};
use workshare_common::codec::Page;
use workshare_common::fxhash::FxHashMap;
use workshare_common::value::Row;
use workshare_common::{CostModel, QueryBitmap, Schema, SharingSignals, StarQuery};
use workshare_core::{Dataset, GovernorConfig, SharingGovernor};
use workshare_sim::{CostKind, Machine, MachineConfig, WaitSet};
use workshare_storage::{IoMode, StorageConfig, StorageManager};

use crate::trace::span;
use crate::workload::Workload;

/// Timed samples per replay (the median is reported).
const SAMPLES: usize = 5;
/// Fact pages the decode / predicate / filter replays run over.
const FACT_PAGES: usize = 48;

/// Median of `SAMPLES` runs of `f`, each returning (wall ns, operations).
fn median_per_op(mut f: impl FnMut() -> (f64, f64)) -> f64 {
    let mut v: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let (ns, ops) = f();
            ns / ops.max(1.0)
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn timed(f: impl FnOnce() -> f64) -> (f64, f64) {
    let t = Instant::now();
    let ops = f();
    (t.elapsed().as_nanos() as f64, ops)
}

/// Wall ns of one `SimCtx::charge` park/resume on an otherwise idle machine.
pub fn charge_event_ns(parent: u64) -> f64 {
    let _s = span("replay.sim_charge", 0, parent);
    const N: usize = 4000;
    median_per_op(|| {
        let m = Machine::new(MachineConfig {
            cores: 1,
            ..MachineConfig::default()
        });
        m.spawn("replay-charge", |ctx| {
            timed(|| {
                for _ in 0..N {
                    ctx.charge(CostKind::Misc, 1000.0);
                }
                N as f64
            })
        })
        .join()
        .expect("charge replay panicked")
    })
}

/// Wall ns of one `WaitSet` notify → wake handoff between two vthreads
/// (ping-pong; each round trip is two handoffs).
pub fn handoff_ns(parent: u64) -> f64 {
    let _s = span("replay.sim_handoff", 0, parent);
    const N: u64 = 2000;
    median_per_op(|| {
        let m = Machine::new(MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        });
        let ws = WaitSet::new(&m);
        let turn = Arc::new(AtomicU64::new(0));
        let player = |first: u64| {
            let (ws, turn) = (ws.clone(), Arc::clone(&turn));
            move |_ctx: &workshare_sim::SimCtx| {
                for k in 0..N {
                    let mine = 2 * k + first;
                    ws.wait_until(|| turn.load(Ordering::Acquire) == mine);
                    turn.store(mine + 1, Ordering::Release);
                    ws.notify_all();
                }
            }
        };
        let t = Instant::now();
        let a = m.spawn("replay-ping", player(0));
        let b = m.spawn("replay-pong", player(1));
        a.join().expect("ping panicked");
        b.join().expect("pong panicked");
        (t.elapsed().as_nanos() as f64, (2 * N) as f64)
    })
}

/// Read every page of `table` once from a vthread (memory-resident mount).
fn table_pages(dataset: &Dataset, table: &str, limit: usize) -> Vec<Page> {
    let storage = mount(dataset);
    let m = Machine::new(MachineConfig::default());
    let t = storage.table(table);
    let n = storage.page_count(t).min(limit);
    m.spawn("replay-load", move |ctx| {
        let stream = storage.new_stream();
        (0..n)
            .map(|p| storage.read_page(ctx, t, p, stream))
            .collect()
    })
    .join()
    .expect("page load panicked")
}

/// A memory-resident mount of `dataset`.
fn mount(dataset: &Dataset) -> StorageManager {
    let config = StorageConfig {
        io_mode: IoMode::Memory,
        ..StorageConfig::default()
    };
    dataset.instantiate(config, CostModel::default())
}

/// Wall µs per `StorageManager::read_page` of the fact table under the
/// workload's own storage configuration (cold mount, sequential pass).
pub fn read_page_us(w: &Workload, dataset: &Dataset, parent: u64) -> f64 {
    let _s = span("replay.storage_read_page", 0, parent);
    let cfg = w.config();
    median_per_op(|| {
        let storage = dataset.instantiate(cfg.storage_config(), cfg.cost);
        let m = Machine::new(cfg.machine_config());
        m.spawn("replay-read", move |ctx| {
            let t = storage.table("lineorder");
            let n = storage.page_count(t).min(4 * FACT_PAGES);
            let stream = storage.new_stream();
            timed(|| {
                for p in 0..n {
                    black_box(storage.read_page(ctx, t, p, stream).row_count());
                }
                n as f64
            })
        })
        .join()
        .expect("read replay panicked")
    }) / 1e3
}

/// Decoded fact rows the row-level replays share.
pub struct FactSample {
    pages: Vec<Page>,
    rows: Vec<Vec<Row>>,
    schema: Arc<Schema>,
}

impl FactSample {
    pub fn new(dataset: &Dataset) -> FactSample {
        let pages = table_pages(dataset, "lineorder", FACT_PAGES);
        let schema = schema_of(&mount(dataset), "lineorder");
        let rows = pages.iter().map(|p| p.decode_all(&schema)).collect();
        FactSample {
            pages,
            rows,
            schema,
        }
    }

    fn row_count(&self) -> f64 {
        self.rows.iter().map(Vec::len).sum::<usize>() as f64
    }
}

fn schema_of(storage: &StorageManager, table: &str) -> Arc<Schema> {
    storage.schema(storage.table(table))
}

/// Wall ns per row of `Page::decode_all` over the fact sample.
pub fn decode_ns_per_row(fact: &FactSample, parent: u64) -> f64 {
    let _s = span("replay.common_decode", 0, parent);
    median_per_op(|| {
        timed(|| {
            for p in &fact.pages {
                black_box(p.decode_all(&fact.schema).len());
            }
            fact.row_count()
        })
    })
}

/// Wall ns per row of `Predicate::eval_batch`: each sampled query's fact
/// predicate over the fact rows and its dimension predicates over the
/// dimension rows.
pub fn pred_eval_ns_per_row(
    dataset: &Dataset,
    fact: &FactSample,
    queries: &[StarQuery],
    parent: u64,
) -> f64 {
    let _s = span("replay.common_pred_eval", 0, parent);
    let dims = dim_rows(dataset, queries);
    let qs = distinct(queries, 16);
    median_per_op(|| {
        timed(|| {
            let mut rows_evaluated = 0usize;
            for q in &qs {
                for rows in &fact.rows {
                    black_box(q.fact_pred.eval_batch(rows).count());
                    rows_evaluated += rows.len();
                }
                for d in &q.dims {
                    let rows = &dims[d.dim.as_str()];
                    black_box(d.pred.eval_batch(rows).count());
                    rows_evaluated += rows.len();
                }
            }
            rows_evaluated as f64
        })
    })
}

/// Wall ns per fact page of `filter_page_vectorized` with one shared filter
/// per dimension, built from the first `width` star queries' predicates.
pub fn filter_ns_per_page(
    dataset: &Dataset,
    fact: &FactSample,
    queries: &[StarQuery],
    width: usize,
    parent: u64,
) -> f64 {
    let _s = span("replay.cjoin_filter", 0, parent);
    let star: Vec<&StarQuery> = queries
        .iter()
        .filter(|q| !q.dims.is_empty())
        .take(width)
        .collect();
    let n = star.len().max(1);
    let dims = dim_rows(dataset, queries);
    let storage = mount(dataset);
    let mut filters: BTreeMap<&str, FilterCore> = BTreeMap::new();
    for (qi, q) in star.iter().enumerate() {
        for d in &q.dims {
            let f = filters.entry(d.dim.as_str()).or_insert_with(|| {
                let dim_schema = schema_of(&storage, &d.dim);
                FilterCore {
                    dim: storage.table(&d.dim),
                    fact_fk_idx: fact.schema.col(&d.fact_fk),
                    dim_pk_idx: dim_schema.col(&d.dim_pk),
                    hash: FxHashMap::default(),
                    referencing: QueryBitmap::zeros(n),
                }
            });
            f.referencing.set(qi);
            for row in &dims[d.dim.as_str()] {
                if d.pred.eval(row) {
                    let key = row[f.dim_pk_idx].as_int();
                    let entry = f.hash.entry(key).or_insert_with(|| DimEntry {
                        row: Arc::new(row.clone()),
                        bits: QueryBitmap::zeros(n),
                    });
                    entry.bits.set(qi);
                }
            }
        }
    }
    let filters: Vec<Arc<FilterCore>> = filters.into_values().map(Arc::new).collect();
    let members = QueryBitmap::ones(n);
    let mut scratch = FilterScratch::default();
    median_per_op(|| {
        timed(|| {
            for rows in &fact.rows {
                let (page, _) = filter_page_vectorized(&filters, rows, &members, &mut scratch);
                black_box(page.selected.len());
            }
            fact.rows.len() as f64
        })
    })
}

/// Wall ns per `SharingGovernor::decide_keyed` over the workload's shapes.
pub fn governor_decide_ns(
    dataset: &Dataset,
    queries: &[StarQuery],
    concurrency: usize,
    cores: u32,
    parent: u64,
) -> f64 {
    let _s = span("replay.core_governor_decide", 0, parent);
    let storage = mount(dataset);
    let inputs: Vec<(u64, SharingSignals)> = distinct(queries, 64)
        .iter()
        .map(|q| {
            let rows = |t: &str| storage.row_count(storage.table(t)) as f64;
            let dim_tuples = q.dims.iter().map(|d| rows(&d.dim)).sum();
            let mut s = SharingSignals::cold(rows(&q.fact), dim_tuples, q.dims.len());
            s.concurrency = concurrency as f64;
            s.stage_in_flight = concurrency as f64;
            s.cores = cores as f64;
            (q.shape_signature(), s)
        })
        .collect();
    const N: usize = 20_000;
    median_per_op(|| {
        let g = SharingGovernor::new(CostModel::default(), GovernorConfig::default());
        timed(|| {
            for i in 0..N {
                let (shape, s) = &inputs[i % inputs.len()];
                black_box(g.decide_keyed(*shape, s));
            }
            N as f64
        })
    })
}

/// Up to `n` queries with distinct plans, in order.
fn distinct(queries: &[StarQuery], n: usize) -> Vec<StarQuery> {
    let mut seen = std::collections::HashSet::new();
    queries
        .iter()
        .filter(|q| seen.insert(q.full_signature()))
        .take(n)
        .cloned()
        .collect()
}

/// Decoded rows of every dimension the queries join.
fn dim_rows<'a>(dataset: &Dataset, queries: &'a [StarQuery]) -> BTreeMap<&'a str, Vec<Row>> {
    let storage = mount(dataset);
    let mut out = BTreeMap::new();
    for d in queries.iter().flat_map(|q| q.dims.iter()) {
        out.entry(d.dim.as_str()).or_insert_with(|| {
            let schema = schema_of(&storage, &d.dim);
            table_pages(dataset, &d.dim, usize::MAX)
                .iter()
                .flat_map(|p| p.decode_all(&schema))
                .collect()
        });
    }
    out
}
