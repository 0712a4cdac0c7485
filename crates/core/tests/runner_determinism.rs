//! Golden tests for the runner's determinism contract: a batch folded
//! on the work-stealing pool must be bit-identical to the same batch
//! run serially, at every worker count, because the coordinator folds
//! strictly in job-index order.

use neofog_core::experiment::{ablation, figure10_11, figure9, multiplex_sweep, run_many};
use neofog_core::fleet::{run_fleet_with, FleetReducer};
use neofog_core::runner::{NoProgress, PoolConfig, Progress, Reduce};
use neofog_core::sim::SimConfig;
use neofog_core::SystemKind;
use neofog_energy::Scenario;

fn quick(seed: u64, slots: u64) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, seed);
    cfg.slots = slots;
    cfg
}

#[test]
fn parallel_matches_serial_across_worker_counts() {
    let configs: Vec<SimConfig> = (0..6).map(|k| quick(k, 60)).collect();
    let serial = run_many(&configs, &PoolConfig::with_workers(1), &mut NoProgress).expect("serial");
    for workers in [2, 8] {
        let parallel = run_many(
            &configs,
            &PoolConfig::with_workers(workers),
            &mut NoProgress,
        )
        .expect("parallel");
        assert_eq!(serial, parallel, "workers={workers} diverged from serial");
    }
    let default_pool = run_many(&configs, &PoolConfig::default(), &mut NoProgress);
    assert_eq!(serial, default_pool.expect("default pool"));
}

#[test]
fn mixed_duration_batch_preserves_input_order() {
    // Heterogeneous slot counts: later (short) jobs finish long before
    // earlier (long) ones, so out-of-order completion is guaranteed
    // with more than one worker — results must still come back in
    // input order.
    let slots = [240u64, 30, 150, 60, 10, 200];
    let configs: Vec<SimConfig> = slots
        .iter()
        .enumerate()
        .map(|(k, &s)| quick(k as u64, s))
        .collect();
    let results = run_many(&configs, &PoolConfig::with_workers(3), &mut NoProgress)
        .expect("mixed batch runs");
    let got: Vec<u64> = results.iter().map(|r| r.config.slots).collect();
    assert_eq!(got, slots);
    let serial = run_many(&configs, &PoolConfig::with_workers(1), &mut NoProgress).expect("serial");
    assert_eq!(serial, results);
}

#[test]
fn fleet_with_one_chain_is_degenerate() {
    let fleet = run_fleet_with(&quick(3, 40), 1, &PoolConfig::default(), &mut NoProgress)
        .expect("one-chain fleet runs");
    assert_eq!(fleet.chains, 1);
    for stat in [&fleet.fog, &fleet.total, &fleet.captured] {
        assert_eq!(stat.mean, stat.min);
        assert_eq!(stat.min, stat.p10);
        assert_eq!(stat.p10, stat.p50);
        assert_eq!(stat.p50, stat.p90);
        assert_eq!(stat.p90, stat.max);
        assert_eq!(stat.std_dev, 0.0);
    }
}

#[test]
fn fleet_reducer_item_is_24_bytes() {
    // The acceptance criterion for streaming aggregation: what crosses
    // from a worker to the fold is three u64 counters, nothing more.
    assert_eq!(
        std::mem::size_of::<<FleetReducer as Reduce>::Item>(),
        24,
        "ChainSummary grew past three u64 counters"
    );
}

#[test]
fn fleet_identical_across_worker_counts() {
    let base = quick(11, 50);
    let one =
        run_fleet_with(&base, 12, &PoolConfig::with_workers(1), &mut NoProgress).expect("1 worker");
    let eight = run_fleet_with(&base, 12, &PoolConfig::with_workers(8), &mut NoProgress)
        .expect("8 workers");
    assert_eq!(one, eight);
    let default_pool = run_fleet_with(&base, 12, &PoolConfig::default(), &mut NoProgress);
    assert_eq!(one, default_pool.expect("default pool"));
}

#[test]
fn figure_helpers_identical_across_worker_counts() {
    let w1 = PoolConfig::with_workers(1);
    let w8 = PoolConfig::with_workers(8);

    let fig9_serial = figure9(1, None, &w1, &mut NoProgress).expect("figure9 serial");
    let fig9_parallel = figure9(1, None, &w8, &mut NoProgress).expect("figure9 parallel");
    assert_eq!(fig9_serial, fig9_parallel);

    let sweep_serial = multiplex_sweep(
        Scenario::MountainRainy,
        &[1, 2],
        3,
        None,
        &w1,
        &mut NoProgress,
    )
    .expect("sweep serial");
    let sweep_parallel = multiplex_sweep(
        Scenario::MountainRainy,
        &[1, 2],
        3,
        None,
        &w8,
        &mut NoProgress,
    )
    .expect("sweep parallel");
    assert_eq!(sweep_serial, sweep_parallel);

    let fig10_serial = figure10_11(
        Scenario::ForestIndependent,
        &[1],
        None,
        &w1,
        &mut NoProgress,
    )
    .expect("fig10 serial");
    let fig10_parallel = figure10_11(
        Scenario::ForestIndependent,
        &[1],
        None,
        &w8,
        &mut NoProgress,
    )
    .expect("fig10 parallel");
    assert_eq!(fig10_serial, fig10_parallel);

    let ablation_serial =
        ablation(Scenario::MountainRainy, 2, None, &w1, &mut NoProgress).expect("ablation serial");
    let ablation_parallel = ablation(Scenario::MountainRainy, 2, None, &w8, &mut NoProgress)
        .expect("ablation parallel");
    assert_eq!(ablation_serial, ablation_parallel);
}

#[test]
fn error_cancels_whole_batch() {
    // Index 2 rejects at Simulator::new (sub-second slots are invalid
    // for the distributed balancer); the batch must surface the error.
    let mut bad = quick(2, 40);
    bad.slot_len = neofog_types::Duration::from_micros(250_000);
    let configs = vec![quick(0, 40), quick(1, 40), bad, quick(3, 40)];
    let err = run_many(&configs, &PoolConfig::with_workers(2), &mut NoProgress)
        .expect_err("invalid config fails the batch");
    assert!(
        matches!(err, neofog_types::NeoFogError::InvalidConfig { .. }),
        "{err}"
    );
}

/// Counts callbacks and checks the `finished` counter is monotone.
#[derive(Default)]
struct CountingProgress {
    started: usize,
    finished: usize,
    last_finished: usize,
}

impl Progress for CountingProgress {
    fn on_started(&mut self, _index: usize, _total: usize) {
        self.started += 1;
    }

    fn on_finished(&mut self, _index: usize, finished: usize, total: usize) {
        assert!(finished > self.last_finished, "finished count not monotone");
        assert!(finished <= total);
        self.last_finished = finished;
        self.finished += 1;
    }
}

#[test]
fn progress_observer_sees_every_job() {
    let configs: Vec<SimConfig> = (0..7).map(|k| quick(k, 30)).collect();
    let mut progress = CountingProgress::default();
    run_many(&configs, &PoolConfig::with_workers(3), &mut progress).expect("batch runs");
    assert_eq!(progress.started, configs.len());
    assert_eq!(progress.finished, configs.len());
}
