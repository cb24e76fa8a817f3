//! # itag-core — the iTag engine
//!
//! The system of Fig. 2, Section III: the managers around the storage
//! engine, the project lifecycle, and the Algorithm-1 loop driven through
//! a crowdsourcing platform.
//!
//! * [`resource_mgr::ResourceManager`] — "controlling the operations on
//!   resources and their related tags … storing resource and tagging
//!   information";
//! * [`tag_mgr::TagManager`] — "the linking of tags to resources";
//! * [`quality_mgr::QualityManager`] — quality metric evaluation, learning
//!   curves, projected gains, strategy suggestion;
//! * [`user_mgr::UserManager`] — provider/tagger profiles and two-sided
//!   approval rates;
//! * [`engine::ITagEngine`] — wires everything: add a project, run the
//!   budgeted campaign through the platform, monitor in real time, promote
//!   or stop resources, switch strategies, add budget, export.
//!
//! The engine runs the same [`itag_strategy::ChooseResources`] objects as
//! the pure simulator, but routes every task through the full pipeline:
//! publish → worker → submit → approval → payment → rfd update.
//!
//! ```
//! use itag_core::config::EngineConfig;
//! use itag_core::engine::ITagEngine;
//! use itag_core::project::ProjectSpec;
//! use itag_model::delicious::DeliciousConfig;
//!
//! let mut engine = ITagEngine::new(EngineConfig::in_memory(7)).unwrap();
//! let provider = engine.register_provider("docs").unwrap();
//! let dataset = DeliciousConfig::tiny(7).generate().dataset;
//! let project = engine
//!     .add_project(provider, ProjectSpec::demo("doc-campaign", 50), dataset)
//!     .unwrap();
//! let summary = engine.run(project, 50).unwrap();
//! assert_eq!(summary.issued, 50);
//! assert!(engine.monitor(project).unwrap().quality_mean >= 0.0);
//! ```

pub mod config;
pub mod engine;
pub mod export;
pub mod monitor;
pub mod notify;
pub mod project;
pub mod quality_mgr;
pub mod records;
pub mod resource_mgr;
pub mod shared;
pub mod snapshot;
pub mod tables;
pub mod tag_mgr;
pub mod user_mgr;

pub use config::{EngineConfig, StorageConfig};
pub use engine::{ITagEngine, RunSummary};
pub use monitor::{MonitorSnapshot, ResourceDetail, ResourceRow, SortKey};
pub use notify::{Notification, NotificationQueue};
pub use project::{ProjectSpec, ProjectState};
pub use snapshot::{EngineSnapshot, ProjectDigest};

/// Engine-level errors.
#[derive(Debug)]
pub enum EngineError {
    Store(itag_store::StoreError),
    Crowd(itag_crowd::CrowdError),
    UnknownProject(itag_model::ids::ProjectId),
    UnknownResource(itag_model::ids::ResourceId),
    /// Operation invalid in the project's current state.
    BadProjectState {
        project: itag_model::ids::ProjectId,
        state: &'static str,
    },
    /// Dataset failed validation on upload.
    InvalidDataset(String),
    /// `add_budget` would overflow the project's task budget; in release
    /// the old unchecked add wrapped, leaving `budget_total < budget_spent`
    /// and an underflowing task quota.
    BudgetOverflow {
        project: itag_model::ids::ProjectId,
        current: u32,
        extra: u32,
    },
    /// Malformed configuration — e.g. a garbage `ITAG_THREADS` /
    /// `ITAG_COMMIT_BATCH` value, rejected loudly instead of silently
    /// falling back to a default.
    Config(String),
}

impl EngineError {
    /// True when this error means the *storage layer* faulted on an I/O
    /// path — the signal the server uses to flip into read-only
    /// degradation. Logical errors (unknown project, corrupt dataset,
    /// bad state) are the caller's problem and never degrade the server.
    pub fn is_storage_fault(&self) -> bool {
        matches!(
            self,
            EngineError::Store(itag_store::StoreError::Io(_))
                | EngineError::Store(itag_store::StoreError::Broken(_))
        )
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Store(e) => write!(f, "storage: {e}"),
            EngineError::Crowd(e) => write!(f, "crowd platform: {e}"),
            EngineError::UnknownProject(p) => write!(f, "unknown project {p}"),
            EngineError::UnknownResource(r) => write!(f, "unknown resource {r}"),
            EngineError::BadProjectState { project, state } => {
                write!(f, "project {project} is {state}")
            }
            EngineError::InvalidDataset(m) => write!(f, "invalid dataset: {m}"),
            EngineError::BudgetOverflow {
                project,
                current,
                extra,
            } => write!(
                f,
                "adding {extra} tasks to {project} overflows its budget of {current}"
            ),
            EngineError::Config(m) => write!(f, "configuration: {m}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Store(e) => Some(e),
            EngineError::Crowd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<itag_store::StoreError> for EngineError {
    fn from(e: itag_store::StoreError) -> Self {
        EngineError::Store(e)
    }
}

impl From<itag_crowd::CrowdError> for EngineError {
    fn from(e: itag_crowd::CrowdError) -> Self {
        EngineError::Crowd(e)
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
