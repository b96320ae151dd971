//! Figure/table regeneration functions, one per paper artifact.

pub mod ablation;
pub mod accuracy;
pub mod circuit;
pub mod energy;
pub mod fleet;
pub mod macro_model;
pub mod retrain;
pub mod tables;
pub mod validation;

use crate::record::{FigureRecord, RunScale};

/// The reduced scale fig13..fig15 are pinned at in the golden registry:
/// every boost configuration, level and grid voltage still runs, on the
/// same cached 1200-image/4-epoch MNIST model as `iso_accuracy` and a
/// CNN proxy of the same size, with 2 dies x 40 images per point.
const GOLDEN_SCALE: RunScale = RunScale {
    trials: 2,
    test_images: 40,
    epochs: 4,
    train_images: 1200,
};

/// The deterministic paper artifacts covered by the golden snapshot suite
/// (`crates/verify` and `tests/golden_snapshots.rs`).
///
/// Every record here is a *deterministic* function of the models — no
/// environment knobs, no wall-clock, no shared RNG state — so a regenerated
/// record must match its blessed copy in `results/golden/` within tight
/// per-metric tolerance bands. Most records are pure analytic functions;
/// `iso_accuracy` and `retrain` additionally exercise Monte-Carlo trials
/// and a cached trained network (`retrain` also runs the fault-injected
/// fine-tuning loop), which is sound here because the trial engine and the
/// training loop derive every die from counters (same results on any
/// machine and thread count) and the artifact cache pins the base weights.
/// The Fig. 13-15 energy/accuracy analyses ride the same argument at
/// `GOLDEN_SCALE`; they pin every boost plan the experiments build (Table
/// 2 configurations, uniform conv levels, iso-accuracy levels). The other
/// statistically-accepted Monte-Carlo figures (fig01, fig02, validation,
/// ablation_ecc) remain excluded: their acceptance lives in
/// `tests/fault_model_stats.rs`.
#[must_use]
pub fn golden_records() -> Vec<FigureRecord> {
    vec![
        circuit::fig04(),
        circuit::fig06(),
        circuit::fig07(),
        circuit::fig08(),
        circuit::fig09(),
        energy::fig12(),
        energy::fig13(GOLDEN_SCALE),
        energy::fig14(GOLDEN_SCALE),
        energy::fig15(GOLDEN_SCALE),
        energy::table3(),
        energy::headlines(),
        energy::iso_accuracy(),
        fleet::fleet(),
        macro_model::macro_model(),
        retrain::retrain(),
        tables::table1(),
        tables::table2(),
        ablation::ablation_levels(),
        ablation::ablation_dataflow(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_registry_ids_are_unique_and_finite() {
        let recs = golden_records();
        assert_eq!(recs.len(), 19);
        let mut ids: Vec<&str> = recs.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 19, "duplicate record ids in golden registry");
        for r in &recs {
            for s in &r.series {
                for &(x, y) in &s.points {
                    assert!(
                        x.is_finite() && y.is_finite(),
                        "{}/{}: non-finite point ({x}, {y})",
                        r.id,
                        s.name
                    );
                }
            }
        }
    }

    #[test]
    fn golden_registry_is_deterministic() {
        // Two back-to-back regenerations must be identical — the property the
        // snapshot suite relies on.
        assert_eq!(golden_records(), golden_records());
    }
}
