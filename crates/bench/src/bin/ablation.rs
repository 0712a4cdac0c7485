//! The §5 contribution study: remove one NV-exploiting technique at a
//! time from the full NEOFog node and measure the in-fog impact.

use neofog_bench::{banner, BenchArgs};
use neofog_core::experiment::ablation;
use neofog_core::report::render_table;
use neofog_core::StderrTicker;
use neofog_energy::Scenario;

fn main() -> neofog_types::Result<()> {
    banner(
        "Technique ablation",
        "§5: 'quantify the contributions due to individual techniques employed'",
    );
    let args = BenchArgs::parse_or_exit();
    let mut events = args.events.clone();
    for (name, scenario) in [
        ("independent (forest)", Scenario::ForestIndependent),
        ("very low power (rainy mountain)", Scenario::MountainRainy),
    ] {
        println!("--- {name} ---");
        // Only the first scenario logs events — a second pass would
        // overwrite the file.
        let log = events.take();
        let rows_data = ablation(
            scenario,
            args.seed.unwrap_or(2),
            log.as_deref(),
            &args.pool(),
            &mut StderrTicker::new("ablation"),
        )?;
        let full_fog = rows_data[0].fog.max(1);
        let rows: Vec<Vec<String>> = rows_data
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    r.fog.to_string(),
                    r.total.to_string(),
                    format!("{:+.0}%", (r.fog as f64 / full_fog as f64 - 1.0) * 100.0),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["Variant", "In-fog", "Total", "Fog vs full"], &rows)
        );
    }
    Ok(())
}
