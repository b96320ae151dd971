//! AlexNet convolution layers under the Eyeriss row-stationary dataflow
//! (the energy side of Figs. 14/15).
//!
//! No network is trained here: the experiment is pure activity/energy
//! modeling, exactly like the paper's Sec. 6.3 energy analysis. Per-layer
//! activity comes from the RS reuse model; the boosted, dual-supply, and
//! single-supply energies come from Eqs. 3, 6, and 2.
//!
//! Run with: `cargo run --release --example alexnet_eyeriss`

use dante::schedule::BoostPlan;
use dante_circuit::units::Volt;
use dante_dataflow::activity::Dataflow;
use dante_dataflow::row_stationary::RowStationaryDataflow;
use dante_dataflow::workloads::alexnet_conv;
use dante_energy::supply::EnergyModel;

fn main() {
    let workload = alexnet_conv();
    let activity = RowStationaryDataflow::new().activity(&workload);
    let energy = EnergyModel::dante_chip();

    println!("AlexNet conv layers under the row-stationary dataflow:");
    println!(
        "{:>6} {:>34} {:>12} {:>12} {:>10}",
        "layer", "shape", "MACs", "GLB acc", "acc/MAC"
    );
    for (shape, act) in workload.layers().iter().zip(activity.layers()) {
        println!(
            "{:>6} {:>34} {:>12} {:>12} {:>9.2}%",
            act.layer + 1,
            format!("{shape}"),
            act.macs,
            act.sram_accesses(),
            act.sram_accesses() as f64 / act.macs as f64 * 100.0
        );
    }
    println!(
        "total: {} MACs, {} accesses ({:.2}% — paper Table 3: 1.67%)\n",
        activity.total_macs(),
        activity.total_sram_accesses(),
        activity.access_mac_ratio() * 100.0
    );

    let macs = activity.total_macs();
    let accesses = activity.total_sram_accesses();
    println!(
        "{:>6} {:>6} {:>8} {:>12} {:>12} {:>10}",
        "Vdd", "level", "Vddv", "E_boost[uJ]", "E_dual[uJ]", "savings"
    );
    for mv in (34..=46).step_by(2) {
        let vdd = Volt::new(f64::from(mv) / 100.0);
        for level in 1..=4 {
            let vddv = energy.vddv(vdd, level);
            let plan = BoostPlan::uniform(level, activity.layers().len());
            let boost = energy
                .dynamic_boosted(vdd, &plan.boosted_groups(&activity), macs)
                .joules();
            let dual = energy.dynamic_dual(vddv, vdd, accesses, macs).joules();
            println!(
                "{:>6.2} {:>6} {:>8.3} {:>12.3} {:>12.3} {:>9.1}%",
                vdd.volts(),
                level,
                vddv.volts(),
                boost * 1e6,
                dual * 1e6,
                (1.0 - boost / dual) * 100.0
            );
        }
    }
    let single_048 = energy
        .dynamic_single(Volt::new(0.48), accesses, macs)
        .joules();
    println!(
        "\nno-boost alternative (single supply @ 0.48 V): {:.3} uJ",
        single_048 * 1e6
    );
    println!("paper headline: boosting saves up to 26% vs dual and 30% vs single@0.48.");
}
