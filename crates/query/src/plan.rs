//! Physical plans and EXPLAIN rendering.

use crate::ast::Metric;
use drugtree_chem::fingerprint::Fingerprint;
use drugtree_phylo::index::LeafInterval;
use drugtree_phylo::tree::NodeId;
use drugtree_store::expr::Predicate;
use drugtree_store::value::Value;
use std::fmt::Write as _;
use std::time::Duration;

/// One source's share of a federated fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchPlan {
    /// Source name.
    pub source: String,
    /// Keys (protein accessions) to look up.
    pub keys: Vec<Value>,
    /// Predicate pushed into the source (already capability-checked).
    pub pushdown: Option<Predicate>,
    /// Coalesce keys into max-batch requests (vs one request per key).
    pub batched: bool,
    /// Per-request key limit resolved from the source capability at
    /// plan time (1 when not batched). The validator cross-checks this
    /// against the live capability.
    pub max_batch: usize,
    /// Dispatch the batches concurrently (vs sequentially).
    pub concurrent: bool,
    /// Cost-model estimate of this fetch's virtual latency.
    pub est_cost: Duration,
    /// Cardinality estimate: rows this fetch is expected to ship.
    pub est_rows: u64,
}

/// One enumerated plan alternative.
///
/// Populated only by the cost-based planner; the fixed-order rule
/// pipeline decides by flags and emits no candidates. Within each
/// `group` exactly one candidate is `chosen`, and the validator checks
/// that its cost is minimal and every cost is finite and non-negative.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCandidate {
    /// Choice group: "access", "cache", or "replica:\<group leader\>".
    pub group: String,
    /// Alternative label (e.g. "batched-fetch", a replica name).
    pub label: String,
    /// Priced cost in seconds.
    pub cost_secs: f64,
    /// Cardinality estimate used in pricing.
    pub rows: u64,
    /// Whether the planner selected this alternative.
    pub chosen: bool,
}

/// How the activity rows are obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Served from the semantic cache.
    CacheProbe {
        /// Pushdown key the probe must match.
        pushdown: Option<Predicate>,
        /// Fallback when the probe misses.
        on_miss: Vec<FetchPlan>,
        /// Whether the miss result is inserted back into the cache.
        insert_on_miss: bool,
        /// Whether per-source results may be combined concurrently.
        concurrent_sources: bool,
    },
    /// Fetched from the federated sources.
    Fetch {
        /// Per-source fetch plans.
        fetches: Vec<FetchPlan>,
        /// Whether per-source results may be combined concurrently.
        concurrent_sources: bool,
    },
    /// Served locally from the columnar activity mirror: the interval
    /// rewrite becomes a binary-searched row range over rank-sorted
    /// column buffers, and predicate leaves run as vectorized
    /// bitmap-producing kernels. No source round-trip.
    ColumnarScan {
        /// Predicate the filter kernels evaluate over the range (the
        /// residual still re-applies the full query predicate).
        pushdown: Option<Predicate>,
    },
    /// Proven empty by statistics; no access at all.
    ProvedEmpty,
}

/// A similarity constraint with the reference fingerprint resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedSimilarity {
    /// The reference fingerprint.
    pub fingerprint: Fingerprint,
    /// Minimum Tanimoto similarity.
    pub min_tanimoto: f64,
}

/// A substructure constraint with the pattern parsed and
/// fingerprinted (for the prescreen).
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedSubstructure {
    /// The pattern molecule.
    pub pattern: drugtree_chem::Molecule,
    /// Its fingerprint (prescreen).
    pub pattern_fp: Fingerprint,
}

/// Finishing operator of a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Finish {
    /// Return matching rows in leaf-rank order.
    Collect,
    /// Return the k best rows by a unified column.
    TopK {
        /// Ranking column index in the unified schema.
        column: usize,
        /// Result size.
        k: usize,
        /// Sort direction.
        descending: bool,
    },
    /// One row per child of the scope root.
    AggregateChildren {
        /// (child node, display label, interval) per child.
        children: Vec<(NodeId, String, LeafInterval)>,
        /// The metric.
        metric: Metric,
    },
    /// One row per leaf in the interval with its matching-record count.
    CountPerLeaf,
}

/// A complete physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Root of the addressed subtree.
    pub scope_node: NodeId,
    /// Its leaf interval.
    pub interval: LeafInterval,
    /// Leaves dropped by statistics pruning (count, for metrics).
    pub pruned_leaves: usize,
    /// Row access.
    pub access: Access,
    /// Residual predicate over unified rows (client-side).
    pub residual: Predicate,
    /// Local-column form of the conjuncts the plan pushed down to the
    /// sources, when any were. Not rendered by EXPLAIN; the adaptive
    /// layer uses it to attribute observed cardinalities back to the
    /// predicate that produced them (learned statistics).
    pub pushed_local: Option<Predicate>,
    /// Whether the ligand join is required (residual/similarity/output
    /// reference ligand columns).
    pub ligand_join: bool,
    /// Similarity constraint.
    pub similarity: Option<ResolvedSimilarity>,
    /// Substructure constraint.
    pub substructure: Option<ResolvedSubstructure>,
    /// Finishing operator.
    pub finish: Finish,
    /// Rule applications, for EXPLAIN.
    pub notes: Vec<String>,
    /// Cost-model estimate of the access latency.
    pub estimated_cost: Duration,
    /// Cost-model cardinality estimate (rows shipped by the access).
    pub estimated_rows: u64,
    /// Alternatives the cost-based planner enumerated (empty under the
    /// fixed rule pipeline).
    pub candidates: Vec<PlanCandidate>,
    /// Per-phase rule firings recorded by the phased rewrite engine
    /// (one entry per fixpoint pass), rendered by EXPLAIN.
    pub rule_trace: Vec<crate::phases::PassTrace>,
}

impl PhysicalPlan {
    /// Multi-line EXPLAIN rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Plan: scope=n{} interval=[{}, {}) pruned_leaves={} est_cost={:?} est_rows={}",
            self.scope_node.0,
            self.interval.lo,
            self.interval.hi,
            self.pruned_leaves,
            self.estimated_cost,
            self.estimated_rows,
        );
        match &self.access {
            Access::CacheProbe {
                pushdown,
                on_miss,
                insert_on_miss,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  CacheProbe pushdown={} insert_on_miss={insert_on_miss}",
                    fmt_pred_opt(pushdown)
                );
                for f in on_miss {
                    let _ = writeln!(out, "    miss-> {}", fmt_fetch(f));
                }
            }
            Access::Fetch {
                fetches,
                concurrent_sources,
            } => {
                let _ = writeln!(out, "  Fetch concurrent_sources={concurrent_sources}");
                for f in fetches {
                    let _ = writeln!(out, "    {}", fmt_fetch(f));
                }
            }
            Access::ColumnarScan { pushdown } => {
                let _ = writeln!(
                    out,
                    "  ColumnarScan kernels=range-slice+filter pushdown={}",
                    fmt_pred_opt(pushdown)
                );
            }
            Access::ProvedEmpty => {
                let _ = writeln!(out, "  ProvedEmpty (statistics)");
            }
        }
        for c in &self.candidates {
            let _ = writeln!(
                out,
                "  Candidate [{}] {}: est_cost={:?} est_rows={}{}",
                c.group,
                c.label,
                crate::cost::secs_to_duration(c.cost_secs),
                c.rows,
                if c.chosen { " (chosen)" } else { "" }
            );
        }
        let _ = writeln!(out, "  Residual: {}", fmt_pred(&self.residual));
        if self.ligand_join {
            let _ = writeln!(out, "  LigandJoin");
        }
        if let Some(sim) = &self.similarity {
            let _ = writeln!(out, "  Similarity: tanimoto >= {}", sim.min_tanimoto);
        }
        if let Some(sub) = &self.substructure {
            let _ = writeln!(
                out,
                "  Substructure: pattern of {} atoms (fingerprint prescreen)",
                sub.pattern.atom_count()
            );
        }
        match &self.finish {
            Finish::Collect => {
                let _ = writeln!(out, "  Collect");
            }
            Finish::TopK {
                column,
                k,
                descending,
            } => {
                let _ = writeln!(
                    out,
                    "  TopK k={k} by=col{column} {}",
                    if *descending { "desc" } else { "asc" }
                );
            }
            Finish::AggregateChildren { children, metric } => {
                let _ = writeln!(
                    out,
                    "  AggregateChildren metric={} children={}",
                    metric.label(),
                    children.len()
                );
            }
            Finish::CountPerLeaf => {
                let _ = writeln!(out, "  CountPerLeaf");
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "  # {note}");
        }
        for pass in &self.rule_trace {
            let firings: Vec<String> = pass
                .firings
                .iter()
                .map(|f| format!("{}={}", f.rule, f.outcome.label()))
                .collect();
            let _ = writeln!(
                out,
                "  RuleTrace {}/{}: {}",
                pass.phase.label(),
                pass.pass,
                firings.join(" ")
            );
        }
        out
    }
}

fn fmt_fetch(f: &FetchPlan) -> String {
    format!(
        "SourceFetch source={} keys={} pushdown={} batched={} max_batch={} concurrent={} \
         est_cost={:?} est_rows={}",
        f.source,
        f.keys.len(),
        fmt_pred_opt(&f.pushdown),
        f.batched,
        f.max_batch,
        f.concurrent,
        f.est_cost,
        f.est_rows
    )
}

fn fmt_pred_opt(p: &Option<Predicate>) -> String {
    match p {
        Some(p) => fmt_pred(p),
        None => "-".to_string(),
    }
}

/// Predicate rendering in the text query language's own syntax: used
/// by EXPLAIN and by `Query`'s `Display`, and re-parseable by
/// `crate::parser`.
pub fn fmt_pred(p: &Predicate) -> String {
    match p {
        Predicate::True => "true".into(),
        Predicate::Compare { column, op, value } => {
            format!("{column} {} {}", op.symbol(), fmt_literal(value))
        }
        Predicate::Between { column, lo, hi } => {
            format!(
                "{column} between {} and {}",
                fmt_literal(lo),
                fmt_literal(hi)
            )
        }
        Predicate::InSet { column, values } => {
            let rendered: Vec<String> = values.iter().map(fmt_literal).collect();
            format!("{column} in ({})", rendered.join(", "))
        }
        Predicate::IsNull { column } => format!("{column} is null"),
        Predicate::And(ps) => {
            let parts: Vec<String> = ps.iter().map(fmt_pred).collect();
            format!("({})", parts.join(" and "))
        }
        Predicate::Or(ps) => {
            let parts: Vec<String> = ps.iter().map(fmt_pred).collect();
            format!("({})", parts.join(" or "))
        }
        Predicate::Not(p) => format!("not {}", fmt_pred(p)),
    }
}

/// Literal rendering in query-language syntax (single-quoted strings).
fn fmt_literal(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Null => "null".into(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_store::expr::CompareOp;

    #[test]
    fn explain_renders_all_sections() {
        let plan = PhysicalPlan {
            scope_node: NodeId(3),
            interval: LeafInterval { lo: 2, hi: 9 },
            pruned_leaves: 2,
            access: Access::Fetch {
                fetches: vec![FetchPlan {
                    source: "assay-sim".into(),
                    keys: vec![Value::from("P1"), Value::from("P2")],
                    pushdown: Some(Predicate::cmp("p_activity", CompareOp::Ge, 6.0)),
                    batched: true,
                    max_batch: 100,
                    concurrent: true,
                    est_cost: Duration::from_millis(12),
                    est_rows: 7,
                }],
                concurrent_sources: true,
            },
            residual: Predicate::cmp("mw", CompareOp::Lt, 500.0),
            pushed_local: Some(Predicate::cmp("p_activity", CompareOp::Ge, 6.0)),
            ligand_join: true,
            similarity: None,
            substructure: None,
            finish: Finish::TopK {
                column: 5,
                k: 10,
                descending: true,
            },
            notes: vec!["pushdown: p_activity >= 6".into()],
            estimated_cost: Duration::from_millis(42),
            estimated_rows: 7,
            candidates: vec![
                PlanCandidate {
                    group: "access".into(),
                    label: "batched-fetch".into(),
                    cost_secs: 0.012,
                    rows: 7,
                    chosen: true,
                },
                PlanCandidate {
                    group: "access".into(),
                    label: "per-key-fetch".into(),
                    cost_secs: 0.024,
                    rows: 7,
                    chosen: false,
                },
            ],
            rule_trace: vec![crate::phases::PassTrace {
                phase: crate::phases::RewritePhase::Optimize,
                pass: 1,
                firings: vec![crate::phases::RuleFiring {
                    rule: "pushdown",
                    outcome: crate::phases::RuleOutcome::Changed,
                }],
            }],
        };
        let text = plan.explain();
        assert!(text.contains("interval=[2, 9)"));
        assert!(text.contains("est_cost=42ms est_rows=7"));
        assert!(text.contains("SourceFetch source=assay-sim keys=2"));
        assert!(text.contains("batched=true"));
        assert!(text.contains("est_cost=12ms est_rows=7"));
        assert!(
            text.contains("Candidate [access] batched-fetch: est_cost=12ms est_rows=7 (chosen)")
        );
        assert!(text.contains("Candidate [access] per-key-fetch: est_cost=24ms est_rows=7\n"));
        assert!(text.contains("mw < 500"));
        assert!(text.contains("LigandJoin"));
        assert!(text.contains("TopK k=10"));
        assert!(text.contains("# pushdown"));
        assert!(text.contains("RuleTrace optimize/1: pushdown=changed"));
    }

    #[test]
    fn predicate_formatting() {
        let p = Predicate::And(vec![
            Predicate::eq("a", 1i64),
            Predicate::Or(vec![
                Predicate::between("b", 1i64, 2i64),
                Predicate::Not(Box::new(Predicate::IsNull { column: "c".into() })),
            ]),
        ]);
        assert_eq!(
            fmt_pred(&p),
            "(a = 1 and (b between 1 and 2 or not c is null))"
        );
        assert_eq!(fmt_pred(&Predicate::True), "true");
        // Literals render in query-language syntax.
        assert_eq!(fmt_pred(&Predicate::eq("s", "it's")), "s = 'it''s'");
        let inset = Predicate::InSet {
            column: "ligand_id".into(),
            values: vec![Value::from("L1"), Value::from("L2")],
        };
        assert_eq!(fmt_pred(&inset), "ligand_id in ('L1', 'L2')");
    }

    #[test]
    fn proved_empty_explain() {
        let plan = PhysicalPlan {
            scope_node: NodeId(0),
            interval: LeafInterval { lo: 0, hi: 0 },
            pruned_leaves: 5,
            access: Access::ProvedEmpty,
            residual: Predicate::True,
            pushed_local: None,
            ligand_join: false,
            similarity: None,
            substructure: None,
            finish: Finish::Collect,
            notes: vec![],
            estimated_cost: Duration::ZERO,
            estimated_rows: 0,
            candidates: vec![],
            rule_trace: vec![],
        };
        assert!(plan.explain().contains("ProvedEmpty"));
    }
}
