//! The convolutional-network analysis of paper Figs. 14 and 15.
//!
//! Energy uses the *real* AlexNet conv-layer shapes under the Eyeriss
//! row-stationary activity model (the same inputs the paper feeds Eq. 3 and
//! Eq. 6); accuracy uses the compact CNN proxy trained on the procedural
//! CIFAR-like set (see DESIGN.md for the substitution rationale).

use crate::accuracy::{AccuracyEvaluator, VoltageAssignment};
use crate::schedule::BoostPlan;
use dante_circuit::units::Volt;
use dante_dataflow::activity::{Dataflow, WorkloadActivity};
use dante_dataflow::row_stationary::RowStationaryDataflow;
use dante_dataflow::workloads::alexnet_conv;
use dante_energy::supply::EnergyModel;
use dante_nn::network::Network;
use dante_sim::{derive_seed, site};

/// The supply voltage at which the chip reaches the iso-accuracy target
/// without boosting (paper Sec. 6.3: "The chip reaches its target accuracy
/// at Vdd >= 0.48 V without need for boosting").
pub const ISO_ACCURACY_TARGET_V: Volt = Volt::const_new(0.48);

/// One `(Vdd, level)` data point of Fig. 14.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvPoint {
    /// Supply voltage.
    pub vdd: Volt,
    /// Uniform boost level applied to the global buffer.
    pub level: usize,
    /// Boosted rail voltage.
    pub vddv: Volt,
    /// Mean Monte-Carlo accuracy of the CNN proxy at the boosted rail.
    pub accuracy_mean: f64,
    /// Boosted dynamic energy (Eq. 3), normalized to the 0.5 V reference.
    pub boost_dynamic: f64,
    /// Dual-supply dynamic energy (Eq. 6), normalized.
    pub dual_dynamic: f64,
}

/// One point of the Fig. 15 iso-accuracy comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct IsoAccuracyPoint {
    /// Supply voltage.
    pub vdd: Volt,
    /// Minimum boost level whose rail reaches the target voltage.
    pub level: usize,
    /// The boosted rail voltage actually achieved.
    pub vddv: Volt,
    /// Boosted dynamic energy, normalized to the 0.5 V reference.
    pub boost_dynamic: f64,
    /// Dual-supply dynamic energy at the same rails, normalized.
    pub dual_dynamic: f64,
    /// Single-supply energy with everything at the 0.48 V target, normalized
    /// (constant across the sweep — the no-boost alternative).
    pub single_at_target: f64,
}

/// The Figs. 14/15 experiment context.
#[derive(Debug)]
pub struct ConvExperiment<'a> {
    proxy_net: &'a Network,
    test_images: &'a [f32],
    test_labels: &'a [u8],
    evaluator: AccuracyEvaluator,
    energy: EnergyModel,
    activity: WorkloadActivity,
}

impl<'a> ConvExperiment<'a> {
    /// Creates the experiment around the trained CNN proxy and its test
    /// set.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent buffer lengths.
    #[must_use]
    pub fn new(
        proxy_net: &'a Network,
        test_images: &'a [f32],
        test_labels: &'a [u8],
        trials: usize,
    ) -> Self {
        assert_eq!(
            test_images.len(),
            test_labels.len() * proxy_net.in_len(),
            "test buffer length mismatch"
        );
        Self {
            proxy_net,
            test_images,
            test_labels,
            evaluator: AccuracyEvaluator::new(trials),
            energy: EnergyModel::dante_chip(),
            activity: RowStationaryDataflow::new().activity(&alexnet_conv()),
        }
    }

    /// The energy model in use.
    #[must_use]
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The AlexNet RS activity counts feeding the energy model.
    #[must_use]
    pub fn activity(&self) -> &WorkloadActivity {
        &self.activity
    }

    /// The Fig. 14/15 voltage axis: 0.34–0.46 V in 20 mV steps.
    #[must_use]
    pub fn default_voltages() -> Vec<Volt> {
        (0..=6)
            .map(|i| Volt::new(0.34 + 0.02 * f64::from(i)))
            .collect()
    }

    fn normalized(&self, joules: f64) -> f64 {
        let reference = self
            .energy
            .reference_energy_at_0v5(
                self.activity.total_sram_accesses(),
                self.activity.total_macs(),
            )
            .joules();
        joules / reference
    }

    /// Eq. 3 dynamic energy with every access boosted at `level`.
    fn uniform_boost_energy(&self, vdd: Volt, level: usize) -> f64 {
        let plan = BoostPlan::uniform(level, self.activity.layers().len());
        self.energy
            .dynamic_boosted(
                vdd,
                &plan.boosted_groups(&self.activity),
                self.activity.total_macs(),
            )
            .joules()
    }

    fn proxy_accuracy(&self, rail: Volt, seed: u64) -> f64 {
        let layers = self.proxy_net.weight_layer_indices().len();
        let assignment = VoltageAssignment::uniform(rail, layers);
        self.evaluator
            .evaluate(
                self.proxy_net,
                &assignment,
                self.test_images,
                self.test_labels,
                seed,
            )
            .mean()
    }

    /// Computes one Fig. 14 point.
    #[must_use]
    pub fn point(&self, vdd: Volt, level: usize, seed: u64) -> ConvPoint {
        let booster = self.energy.booster();
        let vddv = booster.boosted_voltage(vdd, level);
        let macs = self.activity.total_macs();
        let accesses = self.activity.total_sram_accesses();
        let boost = self.uniform_boost_energy(vdd, level);
        let dual = self.energy.dynamic_dual(vddv, vdd, accesses, macs).joules();
        ConvPoint {
            vdd,
            level,
            vddv,
            accuracy_mean: self.proxy_accuracy(vddv, seed),
            boost_dynamic: self.normalized(boost),
            dual_dynamic: self.normalized(dual),
        }
    }

    /// Runs the Fig. 14 grid: every voltage x boost levels 1..=4.
    /// Each cell evaluates under its own [`derive_seed`]-derived sub-seed,
    /// so any cell can be recomputed in isolation.
    #[must_use]
    pub fn run(&self, voltages: &[Volt], seed: u64) -> Vec<ConvPoint> {
        let levels = self.energy.booster().levels();
        let mut out = Vec::new();
        for (vi, &vdd) in voltages.iter().enumerate() {
            for level in 1..=levels {
                let cell = (vi * levels + (level - 1)) as u64;
                out.push(self.point(vdd, level, derive_seed(seed, site::GRID_CELL, cell)));
            }
        }
        out
    }

    /// Runs the Fig. 15 iso-accuracy sweep: at each supply voltage choose
    /// the *minimum* boost level whose rail reaches
    /// [`ISO_ACCURACY_TARGET_V`] and compare against dual-supply and the
    /// 0.48 V single-supply alternative.
    ///
    /// Voltages whose full boost cannot reach the target are skipped (the
    /// chip cannot meet accuracy there).
    #[must_use]
    pub fn iso_accuracy_sweep(&self, voltages: &[Volt]) -> Vec<IsoAccuracyPoint> {
        let booster = self.energy.booster();
        let macs = self.activity.total_macs();
        let accesses = self.activity.total_sram_accesses();
        let single_target = self
            .energy
            .dynamic_single(ISO_ACCURACY_TARGET_V, accesses, macs)
            .joules();
        voltages
            .iter()
            .filter_map(|&vdd| {
                let level = booster.min_level_reaching(vdd, ISO_ACCURACY_TARGET_V)?;
                let vddv = booster.boosted_voltage(vdd, level);
                let boost = self.uniform_boost_energy(vdd, level);
                let dual = self.energy.dynamic_dual(vddv, vdd, accesses, macs).joules();
                Some(IsoAccuracyPoint {
                    vdd,
                    level,
                    vddv,
                    boost_dynamic: self.normalized(boost),
                    dual_dynamic: self.normalized(dual),
                    single_at_target: self.normalized(single_target),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_nn::layers::{Conv2d, Dense, Layer, MaxPool2d, Relu, Shape3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A tiny conv proxy for fast unit tests.
    fn tiny_cnn() -> (Network, Vec<f32>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(Shape3::new(1, 8, 8), 4, 3, 1, &mut rng)),
            Layer::Relu(Relu::new(4 * 64)),
            Layer::MaxPool2d(MaxPool2d::new(Shape3::new(4, 8, 8))),
            Layer::Dense(Dense::new(64, 2, &mut rng)),
        ])
        .unwrap();
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let c = (i % 2) as u8;
            for y in 0..8 {
                for x in 0..8 {
                    // class 0: horizontal stripes, class 1: vertical stripes
                    let v = if c == 0 {
                        (y % 2) as f32
                    } else {
                        (x % 2) as f32
                    };
                    images.push(v * 0.8 + ((i + x + y) % 5) as f32 * 0.02);
                }
            }
            labels.push(c);
        }
        let cfg = dante_nn::train::SgdConfig {
            epochs: 15,
            batch_size: 10,
            learning_rate: 0.05,
            ..Default::default()
        };
        dante_nn::train::train(&mut net, &images, &labels, &cfg, &mut rng);
        (net, images, labels)
    }

    #[test]
    fn boost_beats_dual_across_all_levels() {
        // The Fig. 14 energy claim.
        let (net, images, labels) = tiny_cnn();
        let exp = ConvExperiment::new(&net, &images, &labels, 1);
        for &vdd in &[Volt::new(0.36), Volt::new(0.42)] {
            for level in 1..=4 {
                let p = exp.point(vdd, level, 1);
                assert!(
                    p.boost_dynamic < p.dual_dynamic,
                    "boost {} vs dual {} at {vdd} level {level}",
                    p.boost_dynamic,
                    p.dual_dynamic
                );
            }
        }
    }

    #[test]
    fn full_boost_recovers_proxy_accuracy_at_low_vdd() {
        let (net, images, labels) = tiny_cnn();
        let clean = net.accuracy(&images, &labels);
        assert!(clean > 0.9, "proxy failed to train: {clean}");
        let exp = ConvExperiment::new(&net, &images, &labels, 3);
        let low = exp.point(Volt::new(0.36), 1, 2);
        let high = exp.point(Volt::new(0.36), 4, 2);
        assert!(high.accuracy_mean >= low.accuracy_mean);
        assert!(
            high.accuracy_mean > 0.85,
            "level 4 at 0.36 V -> ~0.54 V rail"
        );
    }

    #[test]
    fn iso_accuracy_sweep_picks_minimum_levels() {
        let (net, images, labels) = tiny_cnn();
        let exp = ConvExperiment::new(&net, &images, &labels, 1);
        let pts = exp.iso_accuracy_sweep(&ConvExperiment::default_voltages());
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(
                p.vddv >= ISO_ACCURACY_TARGET_V,
                "rail below target at {}",
                p.vdd
            );
            // Minimality: one level lower must miss the target (level 0 means
            // vdd itself already reaches it).
            if p.level > 0 {
                let lower = exp
                    .energy_model()
                    .booster()
                    .boosted_voltage(p.vdd, p.level - 1);
                assert!(lower < ISO_ACCURACY_TARGET_V);
            }
        }
        // Levels decrease as the supply rises (paper: Vddv3 at 0.38 V,
        // Vddv1 at 0.46 V).
        let at = |mv: u32| {
            pts.iter()
                .find(|p| (p.vdd.millivolts() - f64::from(mv)).abs() < 1.0)
                .map(|p| p.level)
        };
        assert_eq!(at(380), Some(3));
        assert_eq!(at(460), Some(1));
    }

    #[test]
    fn iso_accuracy_boost_saves_about_30_percent_vs_single_048() {
        // Paper Sec. 6.3: "Compared to the dynamic energy at single supply
        // of 0.48 V, boosting results in 30% energy savings."
        let (net, images, labels) = tiny_cnn();
        let exp = ConvExperiment::new(&net, &images, &labels, 1);
        let pts = exp.iso_accuracy_sweep(&ConvExperiment::default_voltages());
        let savings: Vec<f64> = pts
            .iter()
            .map(|p| 1.0 - p.boost_dynamic / p.single_at_target)
            .collect();
        let avg = savings.iter().sum::<f64>() / savings.len() as f64;
        assert!(
            (0.18..=0.45).contains(&avg),
            "average savings {avg:.3} should be ~0.30"
        );
    }

    #[test]
    fn iso_accuracy_boost_beats_dual_by_about_17_percent() {
        // Paper Sec. 6.3: "boosting results in 17% lower energy on average
        // ... compared to dual supply operation."
        let (net, images, labels) = tiny_cnn();
        let exp = ConvExperiment::new(&net, &images, &labels, 1);
        let pts = exp.iso_accuracy_sweep(&ConvExperiment::default_voltages());
        let savings: Vec<f64> = pts
            .iter()
            .map(|p| 1.0 - p.boost_dynamic / p.dual_dynamic)
            .collect();
        let avg = savings.iter().sum::<f64>() / savings.len() as f64;
        assert!(
            (0.10..=0.30).contains(&avg),
            "average savings {avg:.3} should be ~0.17"
        );
    }

    #[test]
    fn run_covers_voltages_times_levels() {
        let (net, images, labels) = tiny_cnn();
        let exp = ConvExperiment::new(&net, &images, &labels, 1);
        let pts = exp.run(&[Volt::new(0.38), Volt::new(0.44)], 5);
        assert_eq!(pts.len(), 8);
    }
}
