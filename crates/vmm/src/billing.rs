//! The platform cost ledger.
//!
//! The evaluation's Figure 6(b) sums "the cost of running the
//! applications": each VM-interval an application occupies is charged at
//! the VM's location cost (private 2 units/VM·s, cloud 4 units/VM·s in the
//! paper). The ledger charges those intervals into running totals and,
//! when asked to, keeps the intervals themselves for detailed queries.

use meryn_sim::{SimDuration, SimTime};
use meryn_sla::{Money, VmRate};
use serde::{Deserialize, Serialize};

use crate::spec::{Location, VmId};

/// One billed VM interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// The VM used.
    pub vm: VmId,
    /// Where it ran (determines the rate).
    pub location: Location,
    /// Interval start.
    pub from: SimTime,
    /// Interval end.
    pub to: SimTime,
    /// Rate applied.
    pub rate: VmRate,
    /// `rate × (to − from)`.
    pub cost: Money,
}

impl LedgerEntry {
    /// Length of the billed interval.
    pub fn duration(&self) -> SimDuration {
        self.to.since(self.from)
    }
}

/// A cost ledger with O(1) running totals and optional entry history.
///
/// Per-location money and VM-time totals are maintained at
/// [`Ledger::charge`] time, so `total*()` and `*_vm_seconds()` never
/// rescan history. Entry retention is optional: detailed per-interval
/// queries ([`Ledger::entries`], [`Ledger::total_where`],
/// [`Ledger::vm_seconds_where`]) need the entries, but a simulation run
/// keeps totals only (see [`Ledger::aggregate_only`]), so its memory
/// stays O(1) regardless of how many intervals were billed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ledger {
    entries: Vec<LedgerEntry>,
    retain_entries: bool,
    charges: u64,
    total: Money,
    total_private: Money,
    total_cloud: Money,
    /// Billed private VM time [ms]: integer, so the total is exact.
    private_vm_ms: u64,
    /// Billed cloud VM time [ms].
    cloud_vm_ms: u64,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            retain_entries: true,
            charges: 0,
            total: Money::ZERO,
            total_private: Money::ZERO,
            total_cloud: Money::ZERO,
            private_vm_ms: 0,
            cloud_vm_ms: 0,
        }
    }
}

impl Ledger {
    /// Creates an empty ledger that retains every entry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty ledger that keeps only running totals: charges are
    /// counted and summed, but individual [`LedgerEntry`] records are
    /// dropped, so memory stays O(1) in the number of charges.
    pub fn aggregate_only() -> Self {
        Self {
            retain_entries: false,
            ..Self::default()
        }
    }

    /// Switches entry retention on or off. Turning retention off also drops
    /// entries already recorded; running totals are unaffected.
    pub fn set_retain_entries(&mut self, retain: bool) {
        self.retain_entries = retain;
        if !retain {
            self.entries = Vec::new();
        }
    }

    /// True when individual entries are kept (the default).
    pub fn retains_entries(&self) -> bool {
        self.retain_entries
    }

    /// Charges the interval `[from, to)` on `vm` at `rate`, updates the
    /// running totals and (when retention is on) records the entry.
    /// Returns the charged amount.
    pub fn charge(
        &mut self,
        vm: VmId,
        location: Location,
        from: SimTime,
        to: SimTime,
        rate: VmRate,
    ) -> Money {
        assert!(to >= from, "billing interval must not be negative");
        let span = to.since(from);
        let cost = rate.cost_for(span);
        self.charges += 1;
        self.total += cost;
        if location.is_private() {
            self.total_private += cost;
            self.private_vm_ms += span.as_millis();
        } else {
            self.total_cloud += cost;
            self.cloud_vm_ms += span.as_millis();
        }
        if self.retain_entries {
            self.entries.push(LedgerEntry {
                vm,
                location,
                from,
                to,
                rate,
                cost,
            });
        }
        cost
    }

    /// All retained entries, in charge order. Empty when retention is off.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Total of all charges. O(1).
    pub fn total(&self) -> Money {
        self.total
    }

    /// Total of charges on private VMs. O(1).
    pub fn total_private(&self) -> Money {
        self.total_private
    }

    /// Total of charges on cloud VMs. O(1).
    pub fn total_cloud(&self) -> Money {
        self.total_cloud
    }

    /// Billed private VM time [s], retained or not. Exact: summed in
    /// integer milliseconds and converted on read.
    pub fn private_vm_seconds(&self) -> f64 {
        self.private_vm_ms as f64 / 1000.0
    }

    /// Billed cloud VM time [s], retained or not; exact like
    /// [`Ledger::private_vm_seconds`].
    pub fn cloud_vm_seconds(&self) -> f64 {
        self.cloud_vm_ms as f64 / 1000.0
    }

    /// Total of retained charges matching a predicate. Requires entry
    /// retention: with retention off this only sees an empty history.
    pub fn total_where(&self, pred: impl Fn(&LedgerEntry) -> bool) -> Money {
        self.entries
            .iter()
            .filter(|e| pred(e))
            .map(|e| e.cost)
            .sum()
    }

    /// Total billed VM-seconds of retained charges matching a predicate.
    /// Requires entry retention, like [`Ledger::total_where`].
    pub fn vm_seconds_where(&self, pred: impl Fn(&LedgerEntry) -> bool) -> f64 {
        self.entries
            .iter()
            .filter(|e| pred(e))
            .map(|e| e.duration().as_secs_f64())
            .sum()
    }

    /// Number of charges ever made (retained or not).
    pub fn len(&self) -> usize {
        self.charges as usize
    }

    /// True when nothing was charged yet.
    pub fn is_empty(&self) -> bool {
        self.charges == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudId;
    use crate::spec::HostTag;

    fn vid(n: u64) -> VmId {
        VmId::new(HostTag::PRIVATE, n)
    }

    #[test]
    fn charge_computes_cost() {
        let mut l = Ledger::new();
        let cost = l.charge(
            vid(0),
            Location::Private,
            SimTime::from_secs(100),
            SimTime::from_secs(1650),
            VmRate::per_vm_second(2),
        );
        // 1550 s × 2 u/s = 3100 u — the paper's private-run app cost.
        assert_eq!(cost, Money::from_units(3100));
        assert_eq!(l.total(), cost);
        assert_eq!(l.len(), 1);
        assert_eq!(l.entries()[0].duration(), SimDuration::from_secs(1550));
    }

    #[test]
    fn split_by_location() {
        let mut l = Ledger::new();
        l.charge(
            vid(0),
            Location::Private,
            SimTime::ZERO,
            SimTime::from_secs(100),
            VmRate::per_vm_second(2),
        );
        l.charge(
            VmId::new(HostTag(1), 0),
            Location::Cloud(CloudId(0)),
            SimTime::ZERO,
            SimTime::from_secs(100),
            VmRate::per_vm_second(4),
        );
        assert_eq!(l.total_private(), Money::from_units(200));
        assert_eq!(l.total_cloud(), Money::from_units(400));
        assert_eq!(l.total(), Money::from_units(600));
    }

    #[test]
    fn vm_seconds_aggregation() {
        let mut l = Ledger::new();
        l.charge(
            vid(0),
            Location::Private,
            SimTime::ZERO,
            SimTime::from_secs(50),
            VmRate::per_vm_second(2),
        );
        l.charge(
            vid(1),
            Location::Private,
            SimTime::ZERO,
            SimTime::from_secs(25),
            VmRate::per_vm_second(2),
        );
        assert_eq!(l.vm_seconds_where(|_| true), 75.0);
    }

    #[test]
    fn empty_ledger() {
        let l = Ledger::new();
        assert!(l.is_empty());
        assert_eq!(l.total(), Money::ZERO);
    }

    #[test]
    #[should_panic(expected = "must not be negative")]
    fn negative_interval_panics() {
        let mut l = Ledger::new();
        l.charge(
            vid(0),
            Location::Private,
            SimTime::from_secs(10),
            SimTime::from_secs(5),
            VmRate::per_vm_second(1),
        );
    }

    #[test]
    fn aggregate_only_keeps_totals_without_entries() {
        let mut l = Ledger::aggregate_only();
        assert!(!l.retains_entries());
        l.charge(
            vid(0),
            Location::Private,
            SimTime::ZERO,
            SimTime::from_secs(100),
            VmRate::per_vm_second(2),
        );
        l.charge(
            VmId::new(HostTag(1), 0),
            Location::Cloud(CloudId(0)),
            SimTime::ZERO,
            SimTime::from_secs(100),
            VmRate::per_vm_second(4),
        );
        assert_eq!(l.total_private(), Money::from_units(200));
        assert_eq!(l.total_cloud(), Money::from_units(400));
        assert_eq!(l.total(), Money::from_units(600));
        assert_eq!(l.private_vm_seconds(), 100.0);
        assert_eq!(l.cloud_vm_seconds(), 100.0);
        assert_eq!(l.len(), 2);
        assert!(!l.is_empty());
        assert!(l.entries().is_empty());
    }

    #[test]
    fn totals_match_entry_rescan() {
        let mut l = Ledger::new();
        for i in 0..10u64 {
            let loc = if i % 2 == 0 {
                Location::Private
            } else {
                Location::Cloud(CloudId(0))
            };
            l.charge(
                vid(i),
                loc,
                SimTime::from_secs(i),
                SimTime::from_secs(i + 7),
                VmRate::per_vm_second(1 + (i % 3) as i64),
            );
        }
        assert_eq!(l.total(), l.total_where(|_| true));
        assert_eq!(
            l.total_private(),
            l.total_where(|e| e.location.is_private())
        );
        assert_eq!(l.total_cloud(), l.total_where(|e| !e.location.is_private()));
        assert_eq!(
            l.private_vm_seconds(),
            l.vm_seconds_where(|e| e.location.is_private())
        );
        assert_eq!(
            l.cloud_vm_seconds(),
            l.vm_seconds_where(|e| !e.location.is_private())
        );
    }

    #[test]
    fn disabling_retention_drops_history_not_totals() {
        let mut l = Ledger::new();
        l.charge(
            vid(0),
            Location::Private,
            SimTime::ZERO,
            SimTime::from_secs(10),
            VmRate::per_vm_second(2),
        );
        l.set_retain_entries(false);
        assert!(l.entries().is_empty());
        assert_eq!(l.total(), Money::from_units(20));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn zero_length_interval_is_free() {
        let mut l = Ledger::new();
        let cost = l.charge(
            vid(0),
            Location::Private,
            SimTime::from_secs(5),
            SimTime::from_secs(5),
            VmRate::per_vm_second(2),
        );
        assert_eq!(cost, Money::ZERO);
    }
}
