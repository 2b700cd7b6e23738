//! The decoded-dimension-page cache of one admission pool.
//!
//! CJOIN admission seeds the shared filters by scanning dimension tables
//! (paper §3.2). Dimension tables are read-only, so a pool that scans the
//! same dimension window after window would decode the same pages every
//! time. Each admission pool — the engine-level
//! [`AdmissionFabric`](crate::AdmissionFabric), or a stage's own pool —
//! keeps one [`DimPageCache`]: a write-once [`DecodedSlot`] per
//! `(dimension table, page)`, holding the page's rows as shared
//! `Arc<Row>`s. The first scan of a page fills its slot through the
//! fault-aware storage read and the decode; later scans evaluate their
//! predicates over the cached rows and stage `Arc` clones of them as filter
//! entries, so a row is decoded once per pool and never copied again. The
//! serial oracle keeps no cache.
//!
//! Protocol invariant, checked by the model (`tests/interleave_core.rs`):
//! a slot is published **once**. Two scans can miss the same slot at once —
//! a straggler and its re-dispatched subscan, or two windows on a
//! multi-worker pool — and both decode; the first fill wins, the second
//! gets the winner's rows back, so both stage the same `Arc<Row>`s. (A fill
//! that overwrites a published slot hands the racers different rows; that
//! is the `FillMutation::OverwriteAfterPublish` mutation.)
//!
//! Built on [`workshare_common::sync`], so an `--cfg interleave` build swaps
//! the primitives for the model-checked shim.

use workshare_common::fxhash::FxHashMap;
use workshare_common::sync::{Arc, AtomicU64, Mutex, Ordering};
use workshare_common::value::Row;
use workshare_storage::TableId;

/// One decoded dimension page: its rows, each shared by `Arc` with every
/// filter entry staged from it.
pub type DecodedPage = Arc<[Arc<Row>]>;

/// Test-only protocol mutations, compiled only under `--cfg interleave`.
#[cfg(interleave)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillMutation {
    /// The faithful protocol.
    #[default]
    None,
    /// Every fill stores its own rows, even over a published slot, and
    /// reports itself the winner: two racing fillers each publish and
    /// stage different copies of the same page.
    OverwriteAfterPublish,
}

/// A write-once cell holding one decoded page.
pub struct DecodedSlot {
    rows: Mutex<Option<DecodedPage>>,
    #[cfg(interleave)]
    mutation: FillMutation,
}

impl DecodedSlot {
    /// Empty slot.
    pub fn new() -> DecodedSlot {
        DecodedSlot {
            rows: Mutex::new(None),
            #[cfg(interleave)]
            mutation: FillMutation::None,
        }
    }

    /// The published page, if any.
    pub fn get(&self) -> Option<DecodedPage> {
        self.rows.lock().clone()
    }

    /// Publish `page` unless another filler already has. Returns the
    /// published page — the caller's own when it won (`true`), the
    /// earlier winner's otherwise — so every racer scans the same rows.
    pub fn fill(&self, page: DecodedPage) -> (DecodedPage, bool) {
        let mut rows = self.rows.lock();
        #[cfg(interleave)]
        if self.mutation == FillMutation::OverwriteAfterPublish {
            *rows = Some(Arc::clone(&page));
            return (page, true);
        }
        match &*rows {
            Some(published) => (Arc::clone(published), false),
            None => {
                *rows = Some(Arc::clone(&page));
                (page, true)
            }
        }
    }
}

impl Default for DecodedSlot {
    fn default() -> Self {
        Self::new()
    }
}

/// The decoded-page cache of one admission pool: a [`DecodedSlot`] per
/// `(dimension table, page)`, plus the count of pages decoded into it.
#[derive(Default)]
pub struct DimPageCache {
    tables: Mutex<FxHashMap<TableId, Arc<[DecodedSlot]>>>,
    /// Fills published: each distinct page decoded into the cache counts
    /// once, whichever racer won it.
    decodes: AtomicU64,
    #[cfg(interleave)]
    mutation: FillMutation,
}

impl DimPageCache {
    /// Empty cache.
    pub fn new() -> DimPageCache {
        DimPageCache::default()
    }

    /// Test-only constructor whose slots all run a deliberately broken
    /// protocol variant (see [`FillMutation`]).
    #[cfg(interleave)]
    pub fn with_mutation(mutation: FillMutation) -> DimPageCache {
        DimPageCache {
            mutation,
            ..DimPageCache::default()
        }
    }

    /// The slots of `dim`, created empty on first use with one per page.
    pub fn table(&self, dim: TableId, page_count: usize) -> Arc<[DecodedSlot]> {
        let mut tables = self.tables.lock();
        Arc::clone(
            tables
                .entry(dim)
                .or_insert_with(|| (0..page_count).map(|_| self.new_slot()).collect()),
        )
    }

    #[cfg(not(interleave))]
    fn new_slot(&self) -> DecodedSlot {
        DecodedSlot::new()
    }

    #[cfg(interleave)]
    fn new_slot(&self) -> DecodedSlot {
        DecodedSlot {
            rows: Mutex::new(None),
            mutation: self.mutation,
        }
    }

    /// The page in `slot` (one of this cache's). On a miss, `decode` reads
    /// and decodes it and the result is published into the slot — unless
    /// a racing scan published first, whose page is returned instead.
    /// Returns the page and how many rows this call decoded (0 on a hit).
    /// A failed `decode` leaves the slot empty for the next scan to retry.
    pub fn get_or_fill<E>(
        &self,
        slot: &DecodedSlot,
        decode: impl FnOnce() -> Result<DecodedPage, E>,
    ) -> Result<(DecodedPage, usize), E> {
        if let Some(page) = slot.get() {
            return Ok((page, 0));
        }
        let page = decode()?;
        let decoded = page.len();
        let (page, won) = slot.fill(page);
        if won {
            // `Relaxed`: a monotone tally read only by observers.
            self.decodes.fetch_add(1, Ordering::Relaxed);
        }
        Ok((page, decoded))
    }

    /// Pages decoded into the cache so far (its misses that published).
    pub fn decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workshare_common::Value;

    fn page(v: i64) -> DecodedPage {
        vec![Arc::new(vec![Value::Int(v)])].into()
    }

    #[test]
    fn first_fill_wins_and_later_fills_get_its_rows() {
        let slot = DecodedSlot::new();
        assert!(slot.get().is_none());
        let first = page(1);
        let (published, won) = slot.fill(Arc::clone(&first));
        assert!(won && Arc::ptr_eq(&published, &first));
        let (again, won) = slot.fill(page(2));
        assert!(!won, "a published slot is never overwritten");
        assert!(Arc::ptr_eq(&again, &first));
        assert!(Arc::ptr_eq(&slot.get().unwrap(), &first));
    }

    #[test]
    fn cache_decodes_each_page_once_and_never_caches_a_failure() {
        let cache = DimPageCache::new();
        let slots = cache.table(TableId(3), 2);
        assert_eq!(slots.len(), 2);
        let (first, decoded) = cache
            .get_or_fill(&slots[0], || Ok::<_, ()>(page(1)))
            .unwrap();
        assert_eq!(decoded, 1);
        let (hit, decoded) = cache
            .get_or_fill(&slots[0], || -> Result<DecodedPage, ()> {
                panic!("decoded a hit")
            })
            .unwrap();
        assert_eq!(decoded, 0);
        assert!(Arc::ptr_eq(&first, &hit));
        assert_eq!(cache.decodes(), 1);
        // A failed read leaves the slot empty; the retry decodes it.
        assert_eq!(
            cache
                .get_or_fill(&slots[1], || Err("unreadable"))
                .unwrap_err(),
            "unreadable"
        );
        // The same table hands back the same slots.
        let again = cache.table(TableId(3), 2);
        assert!(again[0].get().is_some() && again[1].get().is_none());
        cache
            .get_or_fill(&again[1], || Ok::<_, ()>(page(2)))
            .unwrap();
        assert_eq!(cache.decodes(), 2);
    }
}
