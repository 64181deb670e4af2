//! The columnar activity mirror: local column store for the overlay.
//!
//! [`ActivityColumns`] materializes every assay source's rows once into
//! a [`ColumnarTable`] in the activity-half layout, sorted by Euler-tour
//! leaf rank. With the mirror fresh, the optimizer's interval rewrite
//! stops being a per-leaf key gather and becomes a binary-searched row
//! *range* over contiguous typed buffers ([`Access::ColumnarScan`]),
//! and predicate leaves run as vectorized bitmap kernels — the
//! "sub-millisecond local compute" half of the paper's latency story,
//! with the row path kept byte-identical behind the same executor API
//! (design decision D12 in DESIGN.md).
//!
//! The build pass replicates the fetch path's row pipeline exactly —
//! [`unify_assay_row`], cross-source most-recent dedupe, rank sort — so
//! a columnar scan plus the executor's unchanged residual/finish stages
//! returns the same rows a federated fetch would. Staleness is
//! detected by comparing record counts per source with those at build
//! time.
//!
//! The mirror is also the only aggregate store: a pure aggregate over
//! a columnar scan folds each child's row range with the
//! sum/count/max/distinct kernels. Summing in rank order over deduped
//! rows gives the fetch path's answer bit for bit.
//!
//! [`Access::ColumnarScan`]: crate::plan::Access::ColumnarScan

use crate::dataset::{activity_half_schema, unify_assay_row, Dataset};
use crate::exec::dedupe_most_recent;
use crate::Result;
use drugtree_phylo::index::LeafInterval;
use drugtree_sources::source::{FetchRequest, SourceKind};
use drugtree_store::columnar::ColumnarTable;
use drugtree_store::value::Value;
use std::ops::Range;
use std::time::Duration;

/// All activity rows, column-oriented and rank-sorted.
#[derive(Debug, Clone)]
pub struct ActivityColumns {
    table: ColumnarTable,
    /// (source name, record count) at build time, for staleness checks.
    source_counts: Vec<(String, usize)>,
    /// Simulated cost of the build scan.
    pub build_cost: Duration,
}

impl ActivityColumns {
    /// Build the mirror by scanning every assay source once. Rows run
    /// through the same unification, cross-source dedupe, and rank
    /// sort as the executor's fetch path, so kernel scans over the
    /// mirror select exactly the rows a fetch would ship.
    pub fn build(dataset: &Dataset) -> Result<ActivityColumns> {
        let sources = dataset.registry.by_kind(SourceKind::Assay);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut build_cost = Duration::ZERO;
        let mut source_counts = Vec::new();
        for source in &sources {
            let resp = source.fetch(&FetchRequest::scan())?;
            build_cost += resp.cost;
            source_counts.push((source.name().to_string(), source.record_count()));
            for raw in &resp.rows {
                if let Some(row) = unify_assay_row(dataset, raw) {
                    rows.push(row);
                }
            }
        }
        // Mirror the fetch path's conflict resolution: with more than
        // one source, identical (rank, ligand, type) measurements keep
        // the most recent year.
        if sources.len() > 1 {
            rows = dedupe_most_recent(rows);
        }
        rows.sort_by_key(|r| r[0].as_int().unwrap_or(i64::MAX));
        let mut table = ColumnarTable::from_rows("activity", activity_half_schema(), rows)?;
        table.declare_sorted("leaf_rank")?;
        Ok(ActivityColumns {
            table,
            source_counts,
            build_cost,
        })
    }

    /// True when no assay source has changed since the build.
    pub fn is_fresh(&self, dataset: &Dataset) -> bool {
        dataset.registry.by_kind(SourceKind::Assay).iter().all(|s| {
            self.source_counts
                .iter()
                .any(|(name, n)| name == s.name() && *n == s.record_count())
        })
    }

    /// Number of mirrored activity rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no rows are mirrored.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The contiguous row range covering a leaf interval — the
    /// zero-gather form of the optimizer's interval rewrite.
    pub fn rows_in(&self, interval: LeafInterval) -> Result<Range<usize>> {
        Ok(self
            .table
            .range_of_i64(i64::from(interval.lo), i64::from(interval.hi))?)
    }

    /// The underlying columnar table (activity-half schema).
    pub fn table(&self) -> &ColumnarTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::small_dataset;
    use drugtree_sources::source::SourceCapabilities;
    use drugtree_store::expr::{CompareOp, Predicate};

    fn mirror_and_dataset() -> (ActivityColumns, Dataset) {
        let d = small_dataset(SourceCapabilities::full());
        let c = ActivityColumns::build(&d).unwrap();
        (c, d)
    }

    #[test]
    fn build_mirrors_all_activity_rows() {
        let (c, d) = mirror_and_dataset();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert!(c.build_cost > Duration::ZERO);
        assert_eq!(c.table().sorted_by(), Some(0));
        // Rank-sorted: the whole tree is one contiguous range.
        let all = c.rows_in(d.index.interval(d.tree.root())).unwrap();
        assert_eq!(all, 0..4);
    }

    #[test]
    fn interval_maps_to_contiguous_range() {
        let (c, d) = mirror_and_dataset();
        let clade_a = d.index.by_label("cladeA").unwrap();
        let range = c.rows_in(d.index.interval(clade_a)).unwrap();
        // cladeA holds P1 (2 records) and P2 (1 record); P4 is empty.
        assert_eq!(range.len(), 3);
        for i in range {
            let rank = c.table().get_row(i)[0].as_int().unwrap();
            assert!(d.index.interval(clade_a).contains_rank(rank as u32));
        }
    }

    #[test]
    fn kernels_select_matching_rows() {
        let (c, _) = mirror_and_dataset();
        let pred = Predicate::cmp("p_activity", CompareOp::Ge, 8.0)
            .bind(c.table().schema())
            .unwrap();
        let sel = c.table().eval(&pred, 0..c.len());
        let expect: Vec<usize> = (0..c.len())
            .filter(|&i| pred.matches(&c.table().get_row(i)))
            .collect();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), expect);
        assert!(!expect.is_empty());
    }

    #[test]
    fn staleness_detection() {
        let (c, d) = mirror_and_dataset();
        assert!(c.is_fresh(&d));
        let mut stale = c.clone();
        stale.source_counts[0].1 += 1;
        assert!(!stale.is_fresh(&d));
    }
}
