//! Internal calibration probe: prints the key evaluation numbers so
//! simulator constants can be tuned against the paper's targets.

use neofog_bench::BenchArgs;
use neofog_core::experiment::{average_row, figure10_11, multiplex_sweep};
use neofog_core::{NoProgress, StderrTicker};
use neofog_energy::Scenario;

fn main() -> neofog_types::Result<()> {
    let args = BenchArgs::parse_or_exit();
    let profiles: Vec<u64> = (1..=5).collect();
    for (name, scenario, targets) in [
        (
            "INDEPENDENT (Fig 10)",
            Scenario::ForestIndependent,
            "paper: VP w=13656 c=2664 | NVP w=12383 c=191 f=3045 | NEO c=564 f=5018",
        ),
        (
            "DEPENDENT (Fig 11)",
            Scenario::BridgeDependent,
            "paper: VP w=13886 c=2494 | NVP w=12859 c=313 f=3126 | NEO c=572 f=6418",
        ),
    ] {
        println!("=== {name} ===  {targets}");
        let rows = figure10_11(
            scenario,
            &profiles,
            None,
            &args.pool(),
            &mut StderrTicker::new("calibrate"),
        )?;
        let avg = average_row(&rows);
        for s in &avg {
            println!(
                "  {:12} wakeups={:6} cloud={:6} fog={:6} total={:6}",
                s.system.label(),
                s.wakeups,
                s.cloud,
                s.fog,
                s.total()
            );
        }
        let vp = avg[0].total().max(1) as f64;
        let nvp = avg[1].total().max(1) as f64;
        let neo = avg[2].total() as f64;
        println!(
            "  gains: NEO/VP={:.2} (paper 2.8/2.1)  NEO/NVP={:.2} (paper 2.0/1.7)",
            neo / vp,
            neo / nvp
        );
    }
    for (name, sc, note) in [
        (
            "SUNNY sweep (Fig 12)",
            Scenario::MountainSunny,
            "paper: VP~5000, NEO(1x)~9500, flat with M",
        ),
        (
            "RAINY sweep (Fig 13)",
            Scenario::MountainRainy,
            "paper: VP~725, NEO(1x)~2800, ~2x at 3x, saturate",
        ),
    ] {
        println!("=== {name} ===  {note}");
        let (points, vp) = multiplex_sweep(
            sc,
            &[1, 2, 3, 4, 5],
            args.seed.unwrap_or(3),
            None,
            &args.pool(),
            &mut NoProgress,
        )?;
        println!("  VP reference: {vp}");
        for p in &points {
            println!(
                "  {}x00%: fog={:6} total={:6} captured={:6}",
                p.factor, p.fog_processed, p.total_processed, p.captured
            );
        }
    }
    Ok(())
}
