//! Boost schedules: the paper's Table 2 configurations and their mapping to
//! rail voltages, accelerator schedules, and energy-accounting groups.
//!
//! [`BoostPlan`] is the one place a boost choice becomes rails
//! ([`VoltageAssignment`]s) and Eq. 3 [`BoostedGroup`]s: every supply, sweep,
//! experiment and policy search builds one through [`BoostPlan::uniform`],
//! [`BoostPlan::from_named`] or [`BoostPlan::last_k`].

use crate::accuracy::VoltageAssignment;
use dante_circuit::booster::BoosterBank;
use dante_circuit::units::Volt;
use dante_dataflow::activity::WorkloadActivity;
use dante_energy::params::DANTE_BANKS;
use dante_energy::supply::BoostedGroup;

/// The minimum rail voltage the paper requires for input/intermediate data
/// ("Inputs are boosted to the minimum level such that `Vddv_i > 0.44`",
/// Table 2).
pub const INPUT_TARGET: Volt = Volt::const_new(0.44);

/// The named boost configurations of paper Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedBoostConfig {
    /// All weight layers at level 1 (`Boost_Vddv1`).
    Vddv1,
    /// All weight layers at level 2.
    Vddv2,
    /// All weight layers at level 3.
    Vddv3,
    /// All weight layers at level 4.
    Vddv4,
    /// Increasing boost with depth; deepest layer gets the highest level
    /// (`Boost_diff1`).
    Diff1,
    /// Decreasing boost with depth; first layer gets the highest level
    /// (`Boost_diff2`).
    Diff2,
}

impl NamedBoostConfig {
    /// All six configurations in Table 2 order.
    #[must_use]
    pub fn all() -> [Self; 6] {
        [
            Self::Vddv1,
            Self::Vddv2,
            Self::Vddv3,
            Self::Vddv4,
            Self::Diff1,
            Self::Diff2,
        ]
    }

    /// The paper's name for the configuration.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Vddv1 => "Boost_Vddv1",
            Self::Vddv2 => "Boost_Vddv2",
            Self::Vddv3 => "Boost_Vddv3",
            Self::Vddv4 => "Boost_Vddv4",
            Self::Diff1 => "Boost_diff1",
            Self::Diff2 => "Boost_diff2",
        }
    }

    /// Per-layer weight boost levels for `layers` weight layers on a
    /// `p`-level booster.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero or `p < 4` for the named 4-level configs.
    #[must_use]
    pub fn weight_levels(&self, layers: usize, p: usize) -> Vec<usize> {
        assert!(layers > 0, "need at least one layer");
        assert!(
            p >= 4,
            "Table 2 configurations assume at least 4 boost levels"
        );
        let ramp = |reverse: bool| -> Vec<usize> {
            (0..layers)
                .map(|i| {
                    let idx = if reverse { layers - 1 - i } else { i };
                    if layers == 1 {
                        4
                    } else {
                        1 + (idx * 3).div_ceil(layers - 1).min(3)
                    }
                })
                .collect()
        };
        match self {
            Self::Vddv1 => vec![1; layers],
            Self::Vddv2 => vec![2; layers],
            Self::Vddv3 => vec![3; layers],
            Self::Vddv4 => vec![4; layers],
            Self::Diff1 => ramp(false),
            Self::Diff2 => ramp(true),
        }
    }
}

/// A concrete boost plan: per-weight-layer levels plus the input-memory
/// level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoostPlan {
    weight_levels: Vec<usize>,
    input_level: usize,
}

impl BoostPlan {
    /// Creates a plan from explicit levels.
    ///
    /// # Panics
    ///
    /// Panics if `weight_levels` is empty.
    #[must_use]
    pub fn new(weight_levels: Vec<usize>, input_level: usize) -> Self {
        assert!(!weight_levels.is_empty(), "plan needs at least one layer");
        Self {
            weight_levels,
            input_level,
        }
    }

    /// Every weight layer and the input memory at one `level`: the
    /// paper's global boost configuration.
    ///
    /// Its [`Self::boosted_groups`] is the single group holding every SRAM
    /// access of the workload.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero.
    #[must_use]
    pub fn uniform(level: usize, layers: usize) -> Self {
        Self::new(vec![level; layers], level)
    }

    /// Builds a Table 2 plan: the named weight levels plus the
    /// minimum input level whose rail reaches [`INPUT_TARGET`] at `vdd`
    /// (full boost if even that falls short).
    #[must_use]
    pub fn from_named(
        config: NamedBoostConfig,
        layers: usize,
        booster: &BoosterBank,
        vdd: Volt,
    ) -> Self {
        Self::new(
            config.weight_levels(layers, booster.levels()),
            input_target_level(booster, vdd),
        )
    }

    /// Per-bank boost of the last `k` (fault-critical) layers of a
    /// `layers`-layer network: the paper's Boost Input Control programmed
    /// bank by bank instead of globally.
    ///
    /// Layers are striped round-robin over the chip's [`DANTE_BANKS`]
    /// banks (`bank = layer mod N`). Every bank holding one of the last `k`
    /// layers is boosted at `level`, so a layer sharing such a bank rides
    /// along; all other banks, and the input memory, stay at level 0 and
    /// pay no boost energy.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use dante::schedule::BoostPlan;
    ///
    /// // Four layers on 18 banks, the last one critical at level 2.
    /// let plan = BoostPlan::last_k(2, 1, 4);
    /// assert_eq!(plan.weight_levels(), &[0, 0, 0, 2]);
    /// assert_eq!(plan.input_level(), 0);
    /// ```
    #[must_use]
    pub fn last_k(level: usize, k: usize, layers: usize) -> Self {
        let mut critical = [false; DANTE_BANKS];
        for layer in layers.saturating_sub(k)..layers {
            critical[layer % DANTE_BANKS] = true;
        }
        let levels = (0..layers)
            .map(|layer| {
                if critical[layer % DANTE_BANKS] {
                    level
                } else {
                    0
                }
            })
            .collect();
        Self::new(levels, 0)
    }

    /// Per-layer weight levels.
    #[must_use]
    pub fn weight_levels(&self) -> &[usize] {
        &self.weight_levels
    }

    /// Input-memory level.
    #[must_use]
    pub fn input_level(&self) -> usize {
        self.input_level
    }

    /// The highest weight level in the plan (used to pick the comparison
    /// voltage for single/dual baselines).
    #[must_use]
    pub fn max_weight_level(&self) -> usize {
        *self.weight_levels.iter().max().expect("non-empty plan")
    }

    /// The rail voltages this plan produces at supply `vdd`.
    #[must_use]
    pub fn voltage_assignment(&self, booster: &BoosterBank, vdd: Volt) -> VoltageAssignment {
        VoltageAssignment {
            weight_layers: self
                .weight_levels
                .iter()
                .map(|&l| booster.boosted_voltage(vdd, l))
                .collect(),
            inputs: booster.boosted_voltage(vdd, self.input_level),
        }
    }

    /// Converts to the accelerator-simulator schedule.
    #[must_use]
    pub fn to_accel_schedule(&self) -> dante_accel::executor::BoostSchedule {
        dante_accel::executor::BoostSchedule::per_layer(
            self.weight_levels.clone(),
            self.input_level,
        )
    }

    /// Splits a workload's activity into the per-level access groups of the
    /// paper's Eq. 3: weight accesses at each layer's level, input and
    /// output accesses at the input-memory level. Groups appear in the
    /// order their level is first seen.
    ///
    /// # Panics
    ///
    /// Panics if the activity has a different layer count than the plan.
    #[must_use]
    pub fn boosted_groups(&self, activity: &WorkloadActivity) -> Vec<BoostedGroup> {
        assert_eq!(
            activity.layers().len(),
            self.weight_levels.len(),
            "activity layer count mismatches plan"
        );
        let mut groups: Vec<BoostedGroup> = Vec::new();
        let mut add = |accesses: u64, level: usize| {
            if accesses == 0 {
                return;
            }
            if let Some(g) = groups.iter_mut().find(|g| g.level == level) {
                g.accesses += accesses;
            } else {
                groups.push(BoostedGroup { accesses, level });
            }
        };
        for (layer, &level) in activity.layers().iter().zip(&self.weight_levels) {
            add(layer.weight_accesses, level);
            add(
                layer.input_accesses + layer.output_accesses,
                self.input_level,
            );
        }
        groups
    }
}

/// The paper's one input-target rule: the lowest level whose rail reaches
/// [`INPUT_TARGET`] at `vdd`, or full boost if even that falls short.
pub(crate) fn input_target_level(booster: &BoosterBank, vdd: Volt) -> usize {
    booster
        .min_level_reaching(vdd, INPUT_TARGET)
        .unwrap_or(booster.levels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_dataflow::activity::Dataflow;
    use dante_dataflow::fc_dana::DanaFcDataflow;
    use dante_dataflow::workloads::mnist_fc;

    fn booster() -> BoosterBank {
        BoosterBank::standard()
    }

    #[test]
    fn table2_levels_match_the_paper() {
        assert_eq!(
            NamedBoostConfig::Vddv1.weight_levels(4, 4),
            vec![1, 1, 1, 1]
        );
        assert_eq!(
            NamedBoostConfig::Vddv4.weight_levels(4, 4),
            vec![4, 4, 4, 4]
        );
        assert_eq!(
            NamedBoostConfig::Diff1.weight_levels(4, 4),
            vec![1, 2, 3, 4]
        );
        assert_eq!(
            NamedBoostConfig::Diff2.weight_levels(4, 4),
            vec![4, 3, 2, 1]
        );
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(NamedBoostConfig::Vddv3.name(), "Boost_Vddv3");
        assert_eq!(NamedBoostConfig::Diff2.name(), "Boost_diff2");
        assert_eq!(NamedBoostConfig::all().len(), 6);
    }

    #[test]
    fn input_level_reaches_the_044_target() {
        // At 0.40 V, level 1 gives ~0.45 V > 0.44 V.
        let plan = BoostPlan::from_named(NamedBoostConfig::Vddv4, 4, &booster(), Volt::new(0.40));
        assert_eq!(plan.input_level(), 1);
        // At 0.36 V, level 1 gives ~0.405 V < 0.44, level 2 gives ~0.45.
        let plan = BoostPlan::from_named(NamedBoostConfig::Vddv4, 4, &booster(), Volt::new(0.36));
        assert_eq!(plan.input_level(), 2);
        // Above 0.44 V no boost is needed for inputs.
        let plan = BoostPlan::from_named(NamedBoostConfig::Vddv1, 4, &booster(), Volt::new(0.46));
        assert_eq!(plan.input_level(), 0);
    }

    #[test]
    fn voltage_assignment_follows_the_ladder() {
        let b = booster();
        let vdd = Volt::new(0.40);
        let plan = BoostPlan::from_named(NamedBoostConfig::Diff1, 4, &b, vdd);
        let a = plan.voltage_assignment(&b, vdd);
        assert_eq!(a.weight_layers.len(), 4);
        for w in a.weight_layers.windows(2) {
            assert!(w[1] > w[0], "Diff1 voltages must increase with depth");
        }
        assert!(a.inputs >= INPUT_TARGET);
    }

    #[test]
    fn boosted_groups_partition_all_accesses() {
        let activity = DanaFcDataflow::new().activity(&mnist_fc());
        let plan = BoostPlan::new(vec![1, 2, 3, 4], 1);
        let groups = plan.boosted_groups(&activity);
        let total: u64 = groups.iter().map(|g| g.accesses).sum();
        assert_eq!(total, activity.total_sram_accesses());
        // Input accesses merged into the level-1 group along with L1 weights.
        let l1 = groups.iter().find(|g| g.level == 1).unwrap();
        assert!(l1.accesses > activity.layers()[0].weight_accesses);
    }

    #[test]
    fn accel_schedule_round_trips_levels() {
        let plan = BoostPlan::new(vec![4, 3, 2, 1], 2);
        let s = plan.to_accel_schedule();
        assert_eq!(s.weight_levels(), &[4, 3, 2, 1]);
        assert_eq!(s.input_level(), 2);
    }

    #[test]
    fn diff_ramps_generalize_to_other_layer_counts() {
        let five = NamedBoostConfig::Diff1.weight_levels(5, 4);
        assert_eq!(five.len(), 5);
        assert_eq!(*five.first().unwrap(), 1);
        assert_eq!(*five.last().unwrap(), 4);
        for w in five.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let one = NamedBoostConfig::Diff2.weight_levels(1, 4);
        assert_eq!(one, vec![4]);
    }

    #[test]
    fn uniform_plan_is_one_group_of_every_access() {
        let activity = DanaFcDataflow::new().activity(&mnist_fc());
        let plan = BoostPlan::uniform(3, activity.layers().len());
        assert_eq!(plan.input_level(), 3);
        assert_eq!(
            plan.boosted_groups(&activity),
            vec![BoostedGroup {
                accesses: activity.total_sram_accesses(),
                level: 3,
            }]
        );
    }

    #[test]
    fn last_k_striping_wraps_past_the_chip_banks() {
        // 20 layers on 18 banks: layer 19 sits on bank 1 with layer 1.
        let plan = BoostPlan::last_k(3, 1, 20);
        let boosted: Vec<usize> = (0..20).filter(|&l| plan.weight_levels()[l] > 0).collect();
        assert_eq!(boosted, vec![1, 19]);
        assert_eq!(plan.weight_levels()[19], 3);
    }

    #[test]
    fn last_k_boosts_layers_sharing_a_critical_bank() {
        // Layers 18 and 19 are critical; layers 0 and 1 share their banks
        // and ride along, every other bank stays unboosted.
        let plan = BoostPlan::last_k(2, 2, 20);
        let mut expected = vec![0; 20];
        for l in [0, 1, 18, 19] {
            expected[l] = 2;
        }
        assert_eq!(plan.weight_levels(), expected.as_slice());
    }

    #[test]
    fn last_k_at_or_past_the_layer_count_boosts_every_layer() {
        assert_eq!(BoostPlan::last_k(4, 5, 5).weight_levels(), &[4; 5]);
        assert_eq!(BoostPlan::last_k(4, 64, 5).weight_levels(), &[4; 5]);
        assert_eq!(BoostPlan::last_k(4, 0, 5).weight_levels(), &[0; 5]);
    }

    #[test]
    fn last_k_leaves_the_input_memory_unboosted() {
        for (k, layers) in [(1, 4), (3, 20), (64, 5)] {
            assert_eq!(BoostPlan::last_k(3, k, layers).input_level(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "mismatches plan")]
    fn group_split_validates_layer_count() {
        let activity = DanaFcDataflow::new().activity(&mnist_fc());
        let plan = BoostPlan::new(vec![1, 2], 0);
        let _ = plan.boosted_groups(&activity);
    }
}
