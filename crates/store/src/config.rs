//! Store configuration: where to spill and how much to keep resident.

use eddie_core::{Error, ErrorKind};
use std::path::PathBuf;

const LAYER: &str = "eddie-store";

/// Configuration for a [`SessionStore`](crate::SessionStore).
///
/// Build with [`StoreConfig::builder`]; the builder validates knob
/// ranges the same way `FleetConfigBuilder` does, so a store can never
/// be constructed with a zero resident budget.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreConfig {
    /// Directory the spill log lives in (created on open).
    pub spill_dir: PathBuf,
    /// Maximum sessions kept resident; beyond it the fleet parks the
    /// least-recently-active idle sessions after each drain.
    pub resident_budget: usize,
}

impl StoreConfig {
    /// Starts a builder over the given spill directory with a resident
    /// budget of 1024 sessions.
    pub fn builder(spill_dir: impl Into<PathBuf>) -> StoreConfigBuilder {
        StoreConfigBuilder {
            spill_dir: spill_dir.into(),
            resident_budget: 1024,
        }
    }
}

/// Builder for [`StoreConfig`] with validation at [`build`](StoreConfigBuilder::build).
#[derive(Debug, Clone)]
pub struct StoreConfigBuilder {
    spill_dir: PathBuf,
    resident_budget: usize,
}

impl StoreConfigBuilder {
    /// Sets the maximum number of resident sessions.
    pub fn resident_budget(mut self, sessions: usize) -> Self {
        self.resident_budget = sessions;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::InvalidConfig`] when the resident budget is zero.
    pub fn build(self) -> Result<StoreConfig, Error> {
        if self.resident_budget == 0 {
            return Err(Error::new(
                ErrorKind::InvalidConfig,
                LAYER,
                "resident_budget must be at least 1",
            ));
        }
        Ok(StoreConfig {
            spill_dir: self.spill_dir,
            resident_budget: self.resident_budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let cfg = StoreConfig::builder("/tmp/x").build().unwrap();
        assert_eq!(cfg.resident_budget, 1024);
    }

    #[test]
    fn zero_budget_is_rejected() {
        let err = StoreConfig::builder("/tmp/x")
            .resident_budget(0)
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidConfig);
    }
}
