//! Result-correctness oracle: sampled query results are compared against
//! `volcano_reference` (the tuple-at-a-time query-centric engine) run on a
//! fresh machine over the same dataset, outside the timed region.

use std::collections::HashMap;
use std::sync::Arc;

use workshare_common::value::Row;
use workshare_common::{CostModel, StarQuery};
use workshare_core::volcano::volcano_reference;
use workshare_core::Dataset;
use workshare_sim::{Machine, MachineConfig};
use workshare_storage::{IoMode, StorageConfig, StorageManager};

/// Reference results, cached by plan (`full_signature` covers the fact
/// table, every predicate constant, grouping, aggregates and ordering).
pub struct Oracle {
    storage: StorageManager,
    cache: HashMap<u64, Arc<Vec<Row>>>,
}

impl Oracle {
    /// Mount `dataset` memory-resident for reference runs (residency does
    /// not change results).
    pub fn new(dataset: &Dataset) -> Oracle {
        let config = StorageConfig {
            io_mode: IoMode::Memory,
            ..StorageConfig::default()
        };
        Oracle {
            storage: dataset.instantiate(config, CostModel::default()),
            cache: HashMap::new(),
        }
    }

    /// The reference result of `q`.
    pub fn reference(&mut self, q: &StarQuery) -> Arc<Vec<Row>> {
        let key = q.full_signature();
        if let Some(rows) = self.cache.get(&key) {
            return Arc::clone(rows);
        }
        let machine = Machine::new(MachineConfig {
            cores: 1,
            ..MachineConfig::default()
        });
        let (storage, q2) = (self.storage.clone(), q.clone());
        let rows = machine
            .spawn("perfbench-oracle", move |ctx| {
                volcano_reference(ctx, &storage, &q2, &CostModel::default())
            })
            .join()
            .expect("volcano reference panicked");
        self.cache.insert(key, Arc::clone(&rows));
        rows
    }

    /// Compare each checked `(query index, rows)` pair; returns the number
    /// of mismatches.
    pub fn count_mismatches(
        &mut self,
        queries: &[StarQuery],
        checked: &[(usize, Arc<Vec<Row>>)],
    ) -> u64 {
        checked
            .iter()
            .filter(|(i, rows)| *self.reference(&queries[*i]) != **rows)
            .count() as u64
    }
}

/// Which queries of a round to check: the first occurrence of every
/// distinct plan when `every == 1` (batch), else every `every`-th query.
pub fn sample(queries: &[StarQuery], every: usize) -> Vec<bool> {
    if every <= 1 {
        let mut seen = std::collections::HashSet::new();
        queries
            .iter()
            .map(|q| seen.insert(q.full_signature()))
            .collect()
    } else {
        (0..queries.len()).map(|i| i % every == 0).collect()
    }
}
