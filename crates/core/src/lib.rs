#![deny(missing_docs)]

//! # DrugTree
//!
//! A reproduction of *"Mobile interaction and query optimization in a
//! protein-ligand data analysis system"* (SIGMOD 2013): ligand data
//! overlaid on a protein-motivated phylogenetic tree, fed by federated
//! data sources, queried through an optimizer built for interactive
//! (mobile) tree browsing.
//!
//! ```
//! use drugtree::prelude::*;
//!
//! // Generate a synthetic deployment (see `drugtree-workload`).
//! let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(32).ligands(8));
//! let system = DrugTree::builder()
//!     .dataset(bundle.build_dataset())
//!     .optimizer(OptimizerConfig::full())
//!     .build()
//!     .unwrap();
//!
//! let result = system
//!     .query("activities where p_activity >= 6 top 5 by p_activity desc")
//!     .unwrap();
//! assert!(result.rows.len() <= 5);
//! println!("virtual latency: {:?}", result.metrics.virtual_cost);
//! ```
//!
//! The crate is a thin façade: the substrates live in their own crates
//! (`drugtree-phylo`, `drugtree-chem`, `drugtree-store`,
//! `drugtree-sources`, `drugtree-integrate`, `drugtree-query`,
//! `drugtree-mobile`) and are re-exported under [`prelude`].

pub mod builder;
pub mod obs;
pub mod sched;
pub mod serve;
pub mod snapshot;
pub mod system;

pub use builder::DrugTreeBuilder;
pub use obs::{AdvisorReport, JsonlFileSink, TopReport};
pub use sched::{AdmissionControl, DeadlinePolicy, HedgePolicy, SchedStats};
pub use serve::{FleetBuilder, ServeError, ServeReport, ServeStats};
pub use snapshot::{load_system, save_system};
pub use system::{DrugTree, DrugTreeError, SystemReport};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::builder::DrugTreeBuilder;
    pub use crate::obs::{AdvisorReport, JsonlFileSink, TopReport};
    pub use crate::sched::{AdmissionControl, DeadlinePolicy, HedgePolicy, SchedStats};
    pub use crate::serve::{FleetBuilder, ServeError, ServeReport, ServeStats};
    pub use crate::system::{DrugTree, DrugTreeError, SystemReport};
    pub use drugtree_mobile::gestures::{drill_down_script, GestureConfig};
    pub use drugtree_mobile::serve::{zipf_sessions, SessionWorkload};
    pub use drugtree_mobile::{Gesture, MobileSession, NetworkProfile};
    pub use drugtree_phylo::newick::{parse_newick, to_newick};
    pub use drugtree_phylo::{NodeId, Tree, TreeIndex};
    pub use drugtree_query::ast::{Metric, Query, QueryKind, Scope};
    pub use drugtree_query::optimizer::{Optimizer, OptimizerConfig};
    pub use drugtree_query::{
        AnalyzedResult, GestureObservation, MetricsRegistry, Observer, QuerySpan, QueryTrace, Stage,
    };
    pub use drugtree_query::{Dataset, ExecMetrics, Executor, QueryResult};
    pub use drugtree_query::{
        FleetObserver, QueryClass, RollingWindows, ServeClassCounters, Sink, SloPolicy,
        SlowQueryLog, TraceExport, VecSink, WindowSummary,
    };
    pub use drugtree_store::expr::{CompareOp, Predicate};
    pub use drugtree_store::value::Value;
    // Re-exported for building deployments and benchmarks; an
    // application with real sources implements
    // `drugtree_sources::DataSource` instead.
    pub use drugtree_workload::{SyntheticBundle, WorkloadSpec};
}
