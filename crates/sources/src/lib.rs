#![warn(missing_docs)]

//! Simulated heterogeneous data sources for the DrugTree reproduction.
//!
//! The original system pulled protein, ligand, and assay records from
//! live web databases; reproducing that faithfully would make every
//! latency measurement non-deterministic. Instead (DESIGN.md §6), this
//! crate provides in-process sources that behave like remote services:
//!
//! * [`clock`] — a deterministic **virtual clock**; every simulated
//!   cost is charged here, never slept (design decision D5).
//! * [`latency`] — per-source latency models (RTT + per-row transfer +
//!   seeded jitter).
//! * [`source`] — the [`source::DataSource`] trait, fetch requests
//!   with capability-checked predicate pushdown, and the generic
//!   [`source::SimulatedSource`].
//! * [`protein_db`], [`ligand_db`], [`assay_db`] — the three concrete
//!   source shapes DrugTree federates (UniProt-, ChEMBL-, and
//!   BindingDB-like).
//! * [`batcher`] — request coalescing: k key lookups into ⌈k/B⌉
//!   round-trips (design decision D3).
//! * [`federation`] — the registry the mediator resolves sources from.
//! * [`flaky`] — failure injection: wrap any source to fail a
//!   deterministic fraction of requests transiently.
//! * [`sync`] — loom-swappable lock primitives for the serving stack
//!   (parking_lot normally, loom's instrumented types under
//!   `--cfg loom` for model checking).

pub mod assay_db;
pub mod batcher;
pub mod clock;
pub mod error;
pub mod federation;
pub mod flaky;
pub mod latency;
pub mod ligand_db;
pub mod protein_db;
pub mod sched;
pub mod source;
pub mod sync;
pub mod telemetry;

pub use clock::VirtualClock;
pub use error::SourceError;
pub use federation::SourceRegistry;
pub use latency::LatencyModel;
pub use sched::{EventQueue, EventQueueStats};
pub use source::{DataSource, FetchRequest, FetchResponse, SimulatedSource, SourceKind};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SourceError>;
