//! Population statistics over a fleet's chip summaries.
//!
//! Aggregation always starts by sorting summaries by chip id, so the
//! statistics are a pure function of the summary *set* — independent of
//! worker count and completion order. `tests/determinism.rs` pins this
//! down by comparing 1-worker and 8-worker fleets bit for bit.

use crate::summary::ChipSummary;
use vs_types::Millivolts;

/// An empirical distribution: the sorted sample plus summary accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    sorted: Vec<f64>,
}

impl Distribution {
    /// Builds the distribution from raw samples (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub(crate) fn new(mut values: Vec<f64>) -> Distribution {
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "distribution samples must not be NaN"
        );
        values.sort_by(f64::total_cmp);
        Distribution { sorted: values }
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// The `q`-quantile (0.0 ..= 1.0) by linear interpolation between
    /// order statistics — the same definition as
    /// [`vs_types::stats::percentile`], so fleet percentiles are directly
    /// comparable to single-run trace percentiles. `q` is clamped.
    pub(crate) fn percentile(&self, q: f64) -> Option<f64> {
        vs_types::stats::percentile_sorted(&self.sorted, q.clamp(0.0, 1.0))
    }

    /// `max / min` — the population spread ratio (the paper's "4× Vmin
    /// variation" metric). `None` when empty or when `min` is zero.
    pub(crate) fn spread_ratio(&self) -> Option<f64> {
        let (lo, hi) = (self.min()?, self.max()?);
        if lo == 0.0 {
            None
        } else {
            Some(hi / lo)
        }
    }
}

/// Fleet-level statistics: the population view the paper's Figures 1–2
/// and the headline claims are stated over.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationStats {
    /// Chips aggregated.
    pub num_chips: u64,
    /// Chips that finished without a crash.
    pub healthy_chips: u64,
    /// Total crashed cores across the population (0 in a healthy fleet).
    pub total_crashes: u64,
    /// Total correctable errors across the population.
    pub total_correctable: u64,
    /// Total emergency interrupts across the population.
    pub total_emergencies: u64,
    /// Total DUEs consumed by firmware rollback across the population
    /// (0 without fault injection).
    pub total_dues: u64,
    /// Total crashes recovered by rollback across the population
    /// (0 without fault injection).
    pub total_rollbacks: u64,
    /// Per-core minimum safe voltage (Vmin) across all cores of all chips,
    /// in millivolts.
    pub core_vmin_mv: Distribution,
    /// Per-core first-error (correctable-band onset) voltage, in mV.
    pub core_first_error_mv: Distribution,
    /// Per-core guardband below nominal (`nominal - Vmin`), in mV — the
    /// margin speculation can reclaim; its spread is the paper's "4×"
    /// population variation.
    pub core_margin_mv: Distribution,
    /// Per-chip mean Vdd reduction (fraction of nominal).
    pub chip_vdd_reduction: Distribution,
    /// Per-domain Vdd reduction across all domains of all chips.
    pub domain_vdd_reduction: Distribution,
    /// Per-chip core-rail energy savings vs the fixed-nominal baseline.
    pub chip_energy_savings: Distribution,
    /// Per-chip firmware overhead fraction (software variant; zeros
    /// otherwise).
    pub chip_sw_overhead: Distribution,
}

impl PopulationStats {
    /// Aggregates a fleet's summaries. `nominal` is the mode's nominal
    /// low-voltage set point the margins are measured against.
    pub fn from_summaries(summaries: &[ChipSummary], nominal: Millivolts) -> PopulationStats {
        let mut sorted: Vec<&ChipSummary> = summaries.iter().collect();
        sorted.sort_by_key(|s| s.chip);

        let mut vmin = Vec::new();
        let mut first_error = Vec::new();
        let mut margin = Vec::new();
        let mut chip_reduction = Vec::new();
        let mut domain_reduction = Vec::new();
        let mut energy = Vec::new();
        let mut overhead = Vec::new();
        let mut healthy = 0u64;
        let mut crashes = 0u64;
        let mut correctable = 0u64;
        let mut emergencies = 0u64;
        let mut dues = 0u64;
        let mut rollbacks = 0u64;

        for s in &sorted {
            for m in &s.margins {
                vmin.push(f64::from(m.min_safe_mv));
                first_error.push(f64::from(m.first_error_mv));
                margin.push(f64::from(nominal.0 - m.min_safe_mv));
            }
            chip_reduction.push(s.mean_reduction());
            domain_reduction.extend_from_slice(&s.vdd_reduction);
            energy.push(s.energy_savings);
            overhead.push(s.sw_overhead);
            healthy += u64::from(s.is_healthy());
            crashes += s.crashes;
            correctable += s.correctable;
            emergencies += s.emergencies;
            dues += s.dues;
            rollbacks += s.rollbacks;
        }

        PopulationStats {
            num_chips: sorted.len() as u64,
            healthy_chips: healthy,
            total_crashes: crashes,
            total_correctable: correctable,
            total_emergencies: emergencies,
            total_dues: dues,
            total_rollbacks: rollbacks,
            core_vmin_mv: Distribution::new(vmin),
            core_first_error_mv: Distribution::new(first_error),
            core_margin_mv: Distribution::new(margin),
            chip_vdd_reduction: Distribution::new(chip_reduction),
            domain_vdd_reduction: Distribution::new(domain_reduction),
            chip_energy_savings: Distribution::new(energy),
            chip_sw_overhead: Distribution::new(overhead),
        }
    }

    /// The population's Vmin-margin spread ratio (paper: ~4× across their
    /// eight-chip sample; wider for larger populations).
    pub fn vmin_spread(&self) -> Option<f64> {
        self.core_margin_mv.spread_ratio()
    }

    /// Mean Vdd reduction across chips (paper headline: ~8 % hardware,
    /// and the metric the fleet acceptance test asserts on).
    pub fn mean_vdd_reduction(&self) -> f64 {
        self.chip_vdd_reduction.mean().unwrap_or(0.0)
    }

    /// Mean energy savings across chips.
    pub fn mean_energy_savings(&self) -> f64 {
        self.chip_energy_savings.mean().unwrap_or(0.0)
    }

    /// Multi-line human-readable report for CLI output.
    pub fn report(&self, nominal: Millivolts) -> String {
        let mut out = String::new();
        let pct = |v: f64| format!("{:.2}%", v * 100.0);
        let mv = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.0} mV"));
        out.push_str(&format!(
            "population: {} chips ({} healthy, {} crashed cores)\n",
            self.num_chips, self.healthy_chips, self.total_crashes
        ));
        out.push_str(&format!(
            "events: {} correctable, {} emergencies\n",
            self.total_correctable, self.total_emergencies
        ));
        if self.total_dues > 0 || self.total_rollbacks > 0 {
            out.push_str(&format!(
                "recovery: {} DUEs consumed, {} crash rollbacks\n",
                self.total_dues, self.total_rollbacks
            ));
        }
        out.push_str(&format!(
            "core Vmin: min {} / p50 {} / max {} (nominal {} mV)\n",
            mv(self.core_vmin_mv.min()),
            mv(self.core_vmin_mv.percentile(0.5)),
            mv(self.core_vmin_mv.max()),
            nominal.0
        ));
        out.push_str(&format!(
            "guardband below nominal: min {} / max {} -> spread {}\n",
            mv(self.core_margin_mv.min()),
            mv(self.core_margin_mv.max()),
            self.vmin_spread()
                .map_or("-".to_owned(), |s| format!("{s:.1}x"))
        ));
        out.push_str(&format!(
            "Vdd reduction: mean {} / p10 {} / p90 {}\n",
            pct(self.mean_vdd_reduction()),
            pct(self.chip_vdd_reduction.percentile(0.10).unwrap_or(0.0)),
            pct(self.chip_vdd_reduction.percentile(0.90).unwrap_or(0.0)),
        ));
        out.push_str(&format!(
            "energy savings: mean {} / p10 {} / p90 {}\n",
            pct(self.mean_energy_savings()),
            pct(self.chip_energy_savings.percentile(0.10).unwrap_or(0.0)),
            pct(self.chip_energy_savings.percentile(0.90).unwrap_or(0.0)),
        ));
        if self.chip_sw_overhead.max().unwrap_or(0.0) > 0.0 {
            out.push_str(&format!(
                "firmware overhead: mean {} / max {}\n",
                pct(self.chip_sw_overhead.mean().unwrap_or(0.0)),
                pct(self.chip_sw_overhead.max().unwrap_or(0.0)),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::CoreMarginSummary;
    use vs_types::ChipId;

    fn chip(id: u64, min_safe: i32, reduction: f64) -> ChipSummary {
        ChipSummary {
            chip: ChipId(id),
            die_seed: id,
            margins: vec![CoreMarginSummary {
                core: 0,
                first_error_mv: min_safe + 60,
                min_safe_mv: min_safe,
            }],
            mean_vdd_mv: vec![800.0 * (1.0 - reduction)],
            vdd_reduction: vec![reduction],
            energy_savings: reduction * 1.5,
            correctable: 5,
            emergencies: 1,
            crashes: 0,
            sw_overhead: 0.0,
            dues: 0,
            rollbacks: 0,
        }
    }

    #[test]
    fn distribution_basics() {
        let d = Distribution::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(d.min(), Some(1.0));
        assert_eq!(d.max(), Some(3.0));
        assert_eq!(d.mean(), Some(2.0));
        assert_eq!(d.percentile(0.5), Some(2.0));
        assert_eq!(d.percentile(0.0), Some(1.0));
        assert_eq!(d.percentile(1.0), Some(3.0));
        assert_eq!(d.spread_ratio(), Some(3.0));
        assert!(Distribution::new(vec![]).mean().is_none());
    }

    #[test]
    fn aggregation_is_order_independent() {
        let a = vec![chip(0, 600, 0.05), chip(1, 700, 0.10), chip(2, 650, 0.08)];
        let mut b = a.clone();
        b.reverse();
        let nominal = Millivolts(800);
        assert_eq!(
            PopulationStats::from_summaries(&a, nominal),
            PopulationStats::from_summaries(&b, nominal)
        );
    }

    #[test]
    fn population_metrics() {
        let stats = PopulationStats::from_summaries(
            &[chip(0, 600, 0.05), chip(1, 750, 0.10)],
            Millivolts(800),
        );
        assert_eq!(stats.num_chips, 2);
        assert_eq!(stats.healthy_chips, 2);
        assert_eq!(stats.total_correctable, 10);
        assert_eq!(stats.total_emergencies, 2);
        // Margins 200 and 50 mV -> 4x spread.
        assert_eq!(stats.vmin_spread(), Some(4.0));
        assert!((stats.mean_vdd_reduction() - 0.075).abs() < 1e-12);
        let report = stats.report(Millivolts(800));
        assert!(report.contains("2 chips"));
        assert!(report.contains("4.0x"));
    }
}
