//! Quickstart: simulate one 10-node chain under all three node designs
//! and print who processed what.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use neofog::core::experiment::run_many;
use neofog::core::report::render_table;
use neofog::prelude::*;

fn main() {
    println!("NEOFog quickstart: 10-node chain, forest power traces, 1 hour\n");

    // One config per system design; run_many spreads the batch over
    // the work-stealing pool and returns results in input order.
    let configs: Vec<SimConfig> = SystemKind::ALL
        .iter()
        .map(|&system| {
            let mut cfg = SimConfig::paper_default(system, Scenario::ForestIndependent, 42);
            cfg.slots = 300; // 300 x 12 s = 1 hour
            cfg
        })
        .collect();
    let mut rows = Vec::new();
    let results = run_many(&configs, &PoolConfig::default(), &mut NoProgress);
    for result in results.expect("batch runs") {
        let m = &result.metrics;
        rows.push(vec![
            result.config.system.label().to_string(),
            m.total_wakeups().to_string(),
            m.total_captured().to_string(),
            m.cloud_processed().to_string(),
            m.fog_processed().to_string(),
            format!("{:.0}%", m.fog_share() * 100.0),
            format!("{:.2} J", m.total_radio_energy().as_joules()),
            format!("{:.2} J", m.total_compute_energy().as_joules()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "System",
                "Wakeups",
                "Captured",
                "Cloud",
                "Fog",
                "Fog share",
                "Radio",
                "Compute"
            ],
            &rows,
        )
    );
    println!("The NEOFog node shifts energy from the radio column to the compute");
    println!("column and processes most packages at the edge instead of the cloud —");
    println!("the paper's normally-off to frequently-intermittently-on transition.");
}
