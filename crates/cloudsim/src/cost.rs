//! Itemised cost reports for a query run.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::money::Money;

/// The billing category of one line item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostKind {
    /// VM on-demand compute (including burstable surcharge).
    VmCompute,
    /// VM block-storage volume.
    VmStorage,
    /// Serverless compute (memory-seconds + request charge).
    SlCompute,
    /// The external (Redis) store host, billed while serverless instances
    /// participate in a query (§5).
    ExternalStore,
}

impl fmt::Display for CostKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CostKind::VmCompute => "vm-compute",
            CostKind::VmStorage => "vm-storage",
            CostKind::SlCompute => "sl-compute",
            CostKind::ExternalStore => "external-store",
        };
        f.write_str(s)
    }
}

/// Serialises as the kebab-case display name (`"vm-compute"` etc.).
impl serde::Serialize for CostKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl serde::Deserialize for CostKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => match s.as_str() {
                "vm-compute" => Ok(CostKind::VmCompute),
                "vm-storage" => Ok(CostKind::VmStorage),
                "sl-compute" => Ok(CostKind::SlCompute),
                "external-store" => Ok(CostKind::ExternalStore),
                other => Err(serde::DeError(format!("unknown cost kind `{other}`"))),
            },
            other => Err(serde::DeError(format!(
                "expected a cost-kind name, got {other:?}"
            ))),
        }
    }
}

/// One line of a query's bill.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostItem {
    /// Billing category.
    pub kind: CostKind,
    /// Human-readable description (instance name etc.).
    pub detail: String,
    /// Billed amount.
    pub amount: Money,
}

/// A query's itemised bill.
///
/// # Example
///
/// ```
/// use smartpick_cloudsim::{CostKind, CostReport, Money};
///
/// let mut report = CostReport::new();
/// report.add(CostKind::VmCompute, "t3.small x5", Money::from_dollars(0.012));
/// report.add(CostKind::SlCompute, "lambda x5", Money::from_dollars(0.009));
/// assert!(report.total().approx_eq(Money::from_dollars(0.021), 1e-12));
/// assert!(report.subtotal(CostKind::VmCompute).dollars() > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    items: Vec<CostItem>,
}

impl CostReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        CostReport::default()
    }

    /// Appends a line item.
    pub fn add(&mut self, kind: CostKind, detail: impl Into<String>, amount: Money) {
        self.items.push(CostItem {
            kind,
            detail: detail.into(),
            amount,
        });
    }

    /// All line items in insertion order.
    pub fn items(&self) -> &[CostItem] {
        &self.items
    }

    /// Sum of all line items.
    pub fn total(&self) -> Money {
        self.items.iter().map(|i| i.amount).sum()
    }

    /// Sum of the line items of one billing category.
    pub fn subtotal(&self, kind: CostKind) -> Money {
        self.items
            .iter()
            .filter(|i| i.kind == kind)
            .map(|i| i.amount)
            .sum()
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in &self.items {
            writeln!(
                f,
                "{:>14}  {:<30} {}",
                item.kind.to_string(),
                item.detail,
                item.amount
            )?;
        }
        write!(f, "{:>14}  {:<30} {}", "total", "", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_subtotals() {
        let mut r = CostReport::new();
        r.add(CostKind::VmCompute, "a", Money::from_dollars(1.0));
        r.add(CostKind::VmCompute, "b", Money::from_dollars(2.0));
        r.add(CostKind::ExternalStore, "redis", Money::from_dollars(0.5));
        assert_eq!(r.total().dollars(), 3.5);
        assert_eq!(r.subtotal(CostKind::VmCompute).dollars(), 3.0);
        assert_eq!(r.subtotal(CostKind::SlCompute).dollars(), 0.0);
        assert_eq!(r.items().len(), 3);
    }

    #[test]
    fn display_includes_total() {
        let mut r = CostReport::new();
        r.add(CostKind::VmCompute, "vm", Money::from_dollars(0.1));
        let s = r.to_string();
        assert!(s.contains("vm-compute"));
        assert!(s.contains("total"));
    }
}
