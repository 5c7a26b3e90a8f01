//! The combined analysis report: one feasibility verdict plus (when the
//! target is feasible and a table was built) one audit report, under a
//! versioned JSON schema that CI asserts against.

use crate::{AuditReport, Feasibility};
use serde::{Serialize, Value};

/// Version tag embedded in every exported report. Bump only on breaking
/// schema changes; additive fields keep the tag.
pub const SCHEMA: &str = "irnet-analyze-v1";

/// One analysis target: the oracle's verdict plus, when a routing instance
/// was built on top of a feasible target, the whole-table audit.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Human-readable target label (topology source, algorithm, policy).
    pub target: String,
    /// The feasibility oracle's verdict.
    pub feasibility: Feasibility,
    /// For a fault plan judged state by state: the cycle of the first
    /// infeasible state, the one `feasibility` describes. `None` for a
    /// feasible plan or a single fabric.
    pub infeasible_at_cycle: Option<u32>,
    /// Audit results; `None` when the target is infeasible (nothing to
    /// audit) or the caller ran the oracle only.
    pub audit: Option<AuditReport>,
}

impl AnalysisReport {
    /// Whether the target is feasible and every run audit passed.
    pub fn passed(&self) -> bool {
        self.feasibility.is_feasible() && self.audit.as_ref().is_none_or(AuditReport::passed)
    }

    /// Pretty JSON under the [`SCHEMA`] tag.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }
}

impl Serialize for AnalysisReport {
    /// `infeasible_at_cycle` is written only when set, so reports without
    /// a cycle keep their earlier shape.
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("target".to_string(), Value::Str(self.target.clone())),
            ("passed".to_string(), Value::Bool(self.passed())),
            ("feasibility".to_string(), self.feasibility.to_value()),
        ];
        if let Some(cycle) = self.infeasible_at_cycle {
            fields.push((
                "infeasible_at_cycle".to_string(),
                Value::U64(u64::from(cycle)),
            ));
        }
        fields.push((
            "audit".to_string(),
            self.audit.as_ref().map_or(Value::Null, Serialize::to_value),
        ));
        Value::Map(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_topology;
    use irnet_topology::Topology;

    #[test]
    fn report_json_carries_the_schema_tag() {
        let topo = Topology::new(3, 4, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let report = AnalysisReport {
            target: "triangle".to_string(),
            feasibility: analyze_topology(&topo),
            infeasible_at_cycle: None,
            audit: None,
        };
        assert!(report.passed());
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"irnet-analyze-v1\""));
        assert!(json.contains("\"status\": \"feasible\""));
        assert!(json.contains("\"audit\": null"));
        assert!(!json.contains("infeasible_at_cycle"));
    }
}
