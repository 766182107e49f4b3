//! The five evaluated partitioning tools, as one enum.
//!
//! It lives here so the [`crate::Planner`] — the single entry point every
//! bench binary routes through — can name a tool in a [`crate::PlanSpec`]
//! without depending on the experiment harness; `geographer_bench`
//! re-exports it. [`crate::Planner::try_solve`] is the one dispatch: it
//! walks the hierarchy for Geographer and calls `geographer_baselines`
//! for the rest.

/// The five evaluated tools, in the paper's presentation order
/// (Geographer first, then the Zoltan geometric partitioners).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// Balanced k-means with SFC bootstrap (the paper's contribution).
    Geographer,
    /// Hilbert space-filling-curve cuts (zoltanSFC).
    Hsfc,
    /// MultiJagged multisection.
    MultiJagged,
    /// Recursive coordinate bisection.
    Rcb,
    /// Recursive inertial bisection.
    Rib,
}

impl Tool {
    /// All five tools.
    pub const ALL: [Tool; 5] =
        [Tool::Geographer, Tool::Hsfc, Tool::MultiJagged, Tool::Rcb, Tool::Rib];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Tool::Geographer => "Geographer",
            Tool::Hsfc => "HSFC",
            Tool::MultiJagged => "MultiJagged",
            Tool::Rcb => "RCB",
            Tool::Rib => "RIB",
        }
    }

    /// Whether this tool produces reusable warm-start state (centers +
    /// influences). The four baselines are one-shot: handing them a
    /// previous plan state is a configuration error the planner rejects
    /// with [`crate::PlanError::StatelessTool`].
    pub fn is_stateful(&self) -> bool {
        matches!(self, Tool::Geographer)
    }
}
