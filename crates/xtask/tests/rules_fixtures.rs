//! One violating fixture per rule: the engine must flag each under the
//! right rule id (and only that id), and must stay quiet when one of
//! the sanctioned waiver mechanisms applies.
//!
//! Fixtures live under `tests/fixtures/` — a directory the workspace
//! walk skips — and are linted here under synthetic workspace paths
//! chosen to land in each rule's scope.

use neofog_xtask::{lint_source, lint_sources};

/// Lints `src` as if it lived at `path` and returns the rule ids hit.
fn ids(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(path, src).into_iter().map(|v| v.rule).collect()
}

#[test]
fn unit_rule_flags_dimensioned_f64() {
    let hits = ids(
        "crates/energy/src/fixture.rs",
        include_str!("fixtures/unit.rs"),
    );
    assert_eq!(hits, vec!["NF-UNIT-001"; 3], "field, field, parameter");
}

#[test]
fn unit_rule_ignores_the_units_module_itself() {
    let hits = ids(
        "crates/types/src/units.rs",
        include_str!("fixtures/unit.rs"),
    );
    assert!(
        hits.is_empty(),
        "units.rs defines the raw representations: {hits:?}"
    );
}

#[test]
fn det_rule_flags_wall_clocks() {
    let hits = ids(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/det_time.rs"),
    );
    assert_eq!(hits, vec!["NF-DET-001"; 2], "Instant and SystemTime");
}

#[test]
fn det_rule_flags_hash_collections() {
    let hits = ids(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/det_hash.rs"),
    );
    assert_eq!(hits, vec!["NF-DET-002"; 3], "use, return type, constructor");
}

#[test]
fn det_rule_flags_unseeded_rngs() {
    let hits = ids(
        "crates/rf/src/fixture.rs",
        include_str!("fixtures/det_rng.rs"),
    );
    assert_eq!(hits, vec!["NF-DET-003"; 2], "StdRng and from_entropy");
}

#[test]
fn det_rules_only_apply_to_sim_crates() {
    // The same sources are fine in a non-simulation crate ...
    let hits = ids(
        "crates/workloads/src/fixture.rs",
        include_str!("fixtures/det_hash.rs"),
    );
    assert!(hits.is_empty(), "workloads is not a sim crate: {hits:?}");
    // ... and in a sim crate's benchmark binary.
    let hits = ids(
        "crates/bench/src/bin/fixture.rs",
        include_str!("fixtures/det_time.rs"),
    );
    assert!(hits.is_empty(), "binaries may read wall clocks: {hits:?}");
}

#[test]
fn panic_rule_flags_unwrap_and_expect() {
    let hits = ids(
        "crates/workloads/src/fixture.rs",
        include_str!("fixtures/panic_unwrap.rs"),
    );
    assert_eq!(hits, vec!["NF-PANIC-001"; 2]);
}

#[test]
fn panic_rule_flags_aborting_macros_but_not_assert() {
    let hits = ids(
        "crates/nvp/src/fixture.rs",
        include_str!("fixtures/panic_macro.rs"),
    );
    assert_eq!(
        hits,
        vec!["NF-PANIC-002"; 2],
        "panic! and unreachable!, not assert!"
    );
}

#[test]
fn panic_rule_flags_slice_indexing() {
    let violations = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/indexing.rs"),
    );
    assert_eq!(violations.len(), 1);
    assert_eq!(violations.first().map(|v| v.rule), Some("NF-PANIC-003"));
    assert_eq!(
        violations.first().map(|v| v.line),
        Some(4),
        "diagnostics carry lines"
    );
}

#[test]
fn ledger_rule_flags_unbooked_energy_motion() {
    // The rule's glob scope must cover every phase module of the
    // pipeline, not just one blessed filename.
    for path in [
        "crates/core/src/sim/harvest.rs",
        "crates/core/src/sim/slot_end.rs",
        "crates/core/src/sim/fixture.rs",
    ] {
        let hits = ids(path, include_str!("fixtures/ledger.rs"));
        assert_eq!(
            hits,
            vec!["NF-LEDGER-001"; 2],
            "discharge_up_to and leak at {path}"
        );
    }
}

#[test]
fn ledger_rule_is_scoped_to_the_simulator() {
    for path in [
        "crates/core/src/metrics.rs",
        // The pre-refactor monolith path is out of scope now ...
        "crates/core/src/sim.rs",
        // ... and the glob's `*` must not cross directory separators.
        "crates/core/src/sim/nested/fixture.rs",
    ] {
        let hits = ids(path, include_str!("fixtures/ledger.rs"));
        assert!(
            hits.is_empty(),
            "only sim/*.rs owns the slot loop, got {hits:?} at {path}"
        );
    }
}

#[test]
fn inline_allow_directive_waives_the_named_rule() {
    let hits = ids(
        "crates/workloads/src/fixture.rs",
        include_str!("fixtures/allow_directive.rs"),
    );
    assert!(
        hits.is_empty(),
        "directive should waive NF-PANIC-001: {hits:?}"
    );
}

#[test]
fn test_items_are_exempt() {
    let hits = ids(
        "crates/workloads/src/fixture.rs",
        include_str!("fixtures/test_exempt.rs"),
    );
    assert!(hits.is_empty(), "#[cfg(test)] items are exempt: {hits:?}");
}

#[test]
fn library_rules_skip_test_trees_entirely() {
    // A panic-laden file is fine when it *is* a test.
    let hits = ids(
        "crates/core/tests/fixture.rs",
        include_str!("fixtures/panic_unwrap.rs"),
    );
    assert!(hits.is_empty(), "integration tests may panic: {hits:?}");
}

#[test]
fn scratch_ctx_sources_stay_fully_covered() {
    // The slot-scratch refactor moved per-slot state into a reusable
    // `SlotCtx` that is reset in place every slot; this fixture pins
    // the policy for that code. At its real home every determinism
    // and panic rule fires, the sim-wide NF-PANIC-003 allowlist still
    // waives loop-bound indexing, and NF-LEDGER-001 keeps covering
    // ctx.rs — the ledgers are *opened* there now, so the rule's
    // `crates/core/src/sim/*.rs` glob needed no re-scope: the
    // unbooked discharge is flagged while the booked reset idiom
    // (ledger named within two lines) stays quiet.
    let violations = lint_source(
        "crates/core/src/sim/ctx.rs",
        include_str!("fixtures/scratch_ctx.rs"),
    );
    let hits: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    // Since the call-graph pass, sim/*.rs functions are NF-REACH-001
    // entry points themselves, so every panic site gains a second,
    // reachability-flavoured hit — including the indexing that the
    // sim-wide NF-PANIC-003 allowlist waives per-site: the slot loop
    // reaching it is exactly what the baseline must make auditable.
    // Since the sharded slot kernel, sim/*.rs is also an NF-PAR entry
    // root, so the HashMap line additionally picks up the
    // unordered-iteration hit the runner sources always had.
    assert_eq!(
        hits,
        vec![
            "NF-DET-001",
            "NF-DET-002",
            "NF-PAR-002",
            "NF-DET-003",
            "NF-PANIC-001",
            "NF-REACH-001",
            "NF-PANIC-002",
            "NF-REACH-001",
            "NF-REACH-001",
            "NF-LEDGER-001",
        ],
        "one hit per violating line; NF-PANIC-003 waived but reach-flagged"
    );
    // Entry-point findings carry a one-element chain (the phase
    // function itself).
    let reach_chains: Vec<&[String]> = violations
        .iter()
        .filter(|v| v.rule == "NF-REACH-001")
        .map(|v| v.chain.as_slice())
        .collect();
    assert_eq!(reach_chains.len(), 3);
    assert!(
        reach_chains.iter().all(|c| c.len() == 1),
        "phase functions are their own entry points: {reach_chains:?}"
    );
    // The single ledger hit is the unbooked discharge, not the booked
    // one three lines below it.
    let ledger_lines: Vec<u32> = violations
        .iter()
        .filter(|v| v.rule == "NF-LEDGER-001")
        .map(|v| v.line)
        .collect();
    assert_eq!(ledger_lines, vec![21], "only the unbooked discharge");
}

#[test]
fn runner_sources_are_fully_in_scope() {
    // The work-stealing pool is exactly where a stray wall clock,
    // hash map or unwrap would break batch determinism, so every
    // determinism and panic rule must cover crates/core/src/runner/.
    // Since the parallel-discipline pass, runner functions are
    // NF-PAR entry points themselves, so the HashMap line gains a
    // second, unordered-iteration-flavoured hit on top of NF-DET-002.
    let expected = vec![
        "NF-DET-001",
        "NF-DET-002",
        "NF-PAR-002",
        "NF-DET-003",
        "NF-PANIC-001",
        "NF-PANIC-002",
        "NF-PANIC-003",
    ];
    for path in [
        "crates/core/src/runner/pool.rs",
        "crates/core/src/runner/reduce.rs",
        "crates/core/src/runner/progress.rs",
    ] {
        let hits = ids(path, include_str!("fixtures/runner.rs"));
        assert_eq!(hits, expected, "one violation per line at {path}");
    }
    // The same source is quiet in a test tree: the scope is the
    // runner's library code, not everything mentioning it.
    let hits = ids(
        "crates/core/tests/fixture.rs",
        include_str!("fixtures/runner.rs"),
    );
    assert!(hits.is_empty(), "test trees stay exempt: {hits:?}");
}

// --- graph rules: one positive and one negative mini-workspace each ----

#[test]
fn reach_rule_fires_through_a_two_hop_chain_with_the_chain_shown() {
    // sim phase fn -> same-crate helper -> cross-crate kernel with an
    // unwrap. The kernel is flagged twice: per-file NF-PANIC-001 and
    // transitive NF-REACH-001 carrying the full call chain.
    let report = lint_sources(&[
        (
            "crates/core/src/sim/transmit.rs",
            include_str!("fixtures/reach_entry.rs"),
        ),
        (
            "crates/core/src/shape.rs",
            include_str!("fixtures/reach_mid.rs"),
        ),
        (
            "crates/workloads/src/deep.rs",
            include_str!("fixtures/reach_deep.rs"),
        ),
    ]);
    let hits: Vec<(&str, &str)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.path.as_str()))
        .collect();
    assert_eq!(
        hits,
        vec![
            ("NF-PANIC-001", "crates/workloads/src/deep.rs"),
            ("NF-REACH-001", "crates/workloads/src/deep.rs"),
        ],
        "{:?}",
        report.violations
    );
    let reach = report
        .violations
        .iter()
        .find(|v| v.rule == "NF-REACH-001")
        .expect("reach hit");
    assert_eq!(
        reach.chain,
        vec![
            "core::transmit_phase_fixture",
            "core::shape_budget",
            "workloads::deep_kernel_fixture",
        ],
        "diagnostic shows the depth-2 call chain"
    );
    assert!(
        reach.message.contains("reachable from the slot loop"),
        "{}",
        reach.message
    );
}

#[test]
fn reach_rule_is_quiet_without_a_slot_loop_entry_point() {
    // Same helper and kernel, but the caller is ordinary library code,
    // not a sim/*.rs phase function: only the per-file panic rule
    // fires.
    let report = lint_sources(&[
        (
            "crates/core/src/shape.rs",
            include_str!("fixtures/reach_mid.rs"),
        ),
        (
            "crates/workloads/src/deep.rs",
            include_str!("fixtures/reach_deep.rs"),
        ),
    ]);
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec!["NF-PANIC-001"], "{:?}", report.violations);
}

#[test]
fn det_closure_fires_through_a_two_hop_chain_into_a_non_sim_crate() {
    let report = lint_sources(&[
        (
            "crates/net/src/schedule.rs",
            include_str!("fixtures/det_closure_sim.rs"),
        ),
        (
            "crates/workloads/src/encode.rs",
            include_str!("fixtures/det_closure_helper.rs"),
        ),
    ]);
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec!["NF-DET-004"], "{:?}", report.violations);
    let hit = report.violations.first().expect("one hit");
    assert_eq!(hit.path, "crates/workloads/src/encode.rs");
    assert_eq!(
        hit.chain,
        vec![
            "net::schedule_phase_fixture",
            "workloads::encode_batch_fixture",
            "workloads::scramble_fixture",
        ],
        "diagnostic shows the depth-2 call chain"
    );
    assert!(hit.message.contains("HashMap"), "{}", hit.message);
}

#[test]
fn det_closure_is_quiet_when_nothing_in_a_sim_crate_calls_in() {
    // The helper crate on its own: the per-file NF-DET rules do not
    // scope to workloads and no sim entry reaches it.
    let report = lint_sources(&[(
        "crates/workloads/src/encode.rs",
        include_str!("fixtures/det_closure_helper.rs"),
    )]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn nv_rule_fires_when_an_undisciplined_entry_reaches_the_mutator() {
    let report = lint_sources(&[
        (
            "crates/nvp/src/nvstate.rs",
            include_str!("fixtures/nv_state.rs"),
        ),
        (
            "crates/core/src/cleanup.rs",
            include_str!("fixtures/nv_entry_undisciplined.rs"),
        ),
    ]);
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec!["NF-NV-001"], "{:?}", report.violations);
    let hit = report.violations.first().expect("one hit");
    assert_eq!(hit.path, "crates/nvp/src/nvstate.rs");
    assert!(
        hit.message.contains("NvBuffer.used"),
        "names the struct and field: {}",
        hit.message
    );
    assert_eq!(
        hit.chain,
        vec![
            "core::slot_end_cleanup_fixture",
            "nvp::zero_buffers_fixture",
            "nvp::poke_fixture",
        ],
        "diagnostic shows the undisciplined path to the write"
    );
}

#[test]
fn alloc_rules_fire_through_a_two_hop_chain_with_both_site_families() {
    // sim phase fn -> same-crate staging helper -> cross-crate kernel
    // that constructs a Vec (NF-ALLOC-001) and grows it
    // (NF-ALLOC-002). Both sites carry the depth-2 chain.
    let report = lint_sources(&[
        (
            "crates/core/src/sim/compute.rs",
            include_str!("fixtures/alloc_entry.rs"),
        ),
        (
            "crates/core/src/staging.rs",
            include_str!("fixtures/alloc_mid.rs"),
        ),
        (
            "crates/workloads/src/buffers.rs",
            include_str!("fixtures/alloc_deep.rs"),
        ),
    ]);
    let hits: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.path.as_str(), v.line))
        .collect();
    assert_eq!(
        hits,
        vec![
            ("NF-ALLOC-001", "crates/workloads/src/buffers.rs", 7),
            ("NF-ALLOC-002", "crates/workloads/src/buffers.rs", 8),
        ],
        "{:?}",
        report.violations
    );
    let expected_chain = vec![
        "core::compute_phase_fixture",
        "core::stage_results_fixture",
        "workloads::alloc_kernel_fixture",
    ];
    for v in &report.violations {
        assert_eq!(v.chain, expected_chain, "depth-2 chain on {}", v.rule);
    }
    let ctor = report.violations.first().expect("ctor hit");
    assert!(
        ctor.message.contains("allocates via `Vec::with_capacity`")
            && ctor.message.contains("reachable from the slot loop"),
        "{}",
        ctor.message
    );
    let growth = report.violations.last().expect("growth hit");
    assert!(
        growth.message.contains("grows a container via `.push()`"),
        "{}",
        growth.message
    );
}

#[test]
fn alloc_rules_are_quiet_without_a_phase_entry_point() {
    // Same helper and kernel, but nothing in ALLOC_ENTRY_FILES calls
    // in: allocating outside the slot loop is policy-free.
    let report = lint_sources(&[
        (
            "crates/core/src/staging.rs",
            include_str!("fixtures/alloc_mid.rs"),
        ),
        (
            "crates/workloads/src/buffers.rs",
            include_str!("fixtures/alloc_deep.rs"),
        ),
    ]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn par_rules_fire_through_a_two_hop_chain_from_the_runner() {
    // runner fn -> cross-crate merge helper -> reducer body holding a
    // Mutex (NF-PAR-001) and folding over a HashSet (NF-PAR-002). The
    // HashSet also fires NF-DET-004 — the runner is sim-crate code —
    // pinning the designed overlap between the determinism closure
    // and the parallel discipline.
    let report = lint_sources(&[
        (
            "crates/core/src/runner/steal.rs",
            include_str!("fixtures/par_entry.rs"),
        ),
        (
            "crates/workloads/src/partials.rs",
            include_str!("fixtures/par_mid.rs"),
        ),
        (
            "crates/workloads/src/racy.rs",
            include_str!("fixtures/par_deep.rs"),
        ),
    ]);
    let hits: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.path.as_str(), v.line))
        .collect();
    assert_eq!(
        hits,
        vec![
            ("NF-PAR-001", "crates/workloads/src/racy.rs", 9),
            ("NF-DET-004", "crates/workloads/src/racy.rs", 10),
            ("NF-PAR-002", "crates/workloads/src/racy.rs", 10),
        ],
        "{:?}",
        report.violations
    );
    let expected_chain = vec![
        "core::worker_loop_fixture",
        "workloads::merge_partials_fixture",
        "workloads::racy_reduce_fixture",
    ];
    for v in &report.violations {
        assert_eq!(v.chain, expected_chain, "depth-2 chain on {}", v.rule);
    }
    let mutex = report.violations.first().expect("interior-mut hit");
    assert!(
        mutex.message.contains("interior mutability `Mutex`")
            && mutex.message.contains("reachable from the parallel runner"),
        "{}",
        mutex.message
    );
    let unordered = report.violations.last().expect("unordered hit");
    assert!(
        unordered.message.contains("unordered `HashSet`"),
        "{}",
        unordered.message
    );
}

#[test]
fn par_rules_are_quiet_without_a_runner_entry_point() {
    // The reducer and its helper on their own: no runner file, no sim
    // entry, so neither the parallel rules nor the determinism
    // closure have anything to say.
    let report = lint_sources(&[
        (
            "crates/workloads/src/partials.rs",
            include_str!("fixtures/par_mid.rs"),
        ),
        (
            "crates/workloads/src/racy.rs",
            include_str!("fixtures/par_deep.rs"),
        ),
    ]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn shard_rules_fire_through_a_depth_2_chain_from_a_sweep() {
    // sweep (entry file, sweep-shaped name) -> helper taking the full
    // fleet. The signature leak fires at both depths; the dotted
    // `.emit(` fires once; the helper's finding carries the two-hop
    // witness chain.
    let report = lint_sources(&[
        (
            "crates/core/src/sim/harvest.rs",
            include_str!("fixtures/shard_entry.rs"),
        ),
        (
            "crates/core/src/sim/peek.rs",
            include_str!("fixtures/shard_deep.rs"),
        ),
    ]);
    let hits: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.path.as_str(), v.line))
        .collect();
    assert_eq!(
        hits,
        vec![
            ("NF-SHARD-001", "crates/core/src/sim/harvest.rs", 9),
            ("NF-SHARD-002", "crates/core/src/sim/harvest.rs", 9),
            ("NF-SHARD-002", "crates/core/src/sim/harvest.rs", 10),
            ("NF-SHARD-001", "crates/core/src/sim/peek.rs", 6),
        ],
        "{:?}",
        report.violations
    );
    let deep = report.violations.last().expect("depth-2 hit");
    assert_eq!(
        deep.chain,
        vec!["core::gather_sweep", "core::poke_fixture"],
        "witness chain on the helper's signature leak"
    );
    assert!(
        deep.message.contains("full-fleet state `NodeColumns`"),
        "{}",
        deep.message
    );
    let emit = report
        .violations
        .iter()
        .find(|v| v.line == 10)
        .expect("dotted-emit hit");
    assert!(
        emit.message.contains("bypassing the shard event splice"),
        "{}",
        emit.message
    );
}

#[test]
fn shard_rules_are_quiet_for_view_local_sweeps_and_unreached_helpers() {
    // The disciplined twin: a sweep over a NodeView emitting through
    // its closure parameter.
    let report = lint_sources(&[(
        "crates/core/src/sim/harvest.rs",
        include_str!("fixtures/shard_clean.rs"),
    )]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // The leaky helper with no sweep to reach it: coordinators hold
    // the whole fleet legitimately, so on its own it is policy-free.
    let report = lint_sources(&[(
        "crates/core/src/sim/peek.rs",
        include_str!("fixtures/shard_deep.rs"),
    )]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn shard_rules_reach_stage_bodies_through_a_fused_pass() {
    // pass (shard driver, `sweep`) -> stage body in a non-entry file
    // naming the fleet-wide counters: the stage is linted because the
    // fused pass reaches it, and the witness chain says so.
    let report = lint_sources(&[
        (
            "crates/core/src/sim/shard.rs",
            include_str!("fixtures/shard_fused.rs"),
        ),
        (
            "crates/core/src/sim/tally.rs",
            include_str!("fixtures/shard_stage.rs"),
        ),
    ]);
    let hits: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.path.as_str(), v.line))
        .collect();
    assert_eq!(
        hits,
        vec![("NF-SHARD-001", "crates/core/src/sim/tally.rs", 10)],
        "{:?}",
        report.violations
    );
    let hit = report.violations.first().expect("stage-body hit");
    assert_eq!(
        hit.chain,
        vec!["core::sweep", "core::TallyStage::node_sweep"],
        "witness chain runs through the fused pass"
    );
    assert!(
        hit.message.contains("full-fleet state `NetworkMetrics`"),
        "{}",
        hit.message
    );
    // The same stage with no pass to reach it is policy-free.
    let report = lint_sources(&[(
        "crates/core/src/sim/tally.rs",
        include_str!("fixtures/shard_stage.rs"),
    )]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn shard_sink_emit_is_sanctioned_only_while_no_other_type_shares_the_name() {
    // Sink-only `emit`: the dotted call resolves to the shard's own
    // sink and nowhere else.
    let report = lint_sources(&[(
        "crates/core/src/sim/harvest.rs",
        include_str!("fixtures/shard_sink.rs"),
    )]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // A second type with an `emit` method anywhere in the workspace:
    // the call could now dispatch there, so it is flagged again.
    let report = lint_sources(&[
        (
            "crates/core/src/sim/harvest.rs",
            include_str!("fixtures/shard_sink.rs"),
        ),
        (
            "crates/core/src/sim/tap.rs",
            "pub struct Tap;\n\nimpl Tap {\n    pub fn emit(&mut self, _value: u64) {}\n}\n",
        ),
    ]);
    let hits: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.path.as_str(), v.line))
        .collect();
    assert_eq!(
        hits,
        vec![("NF-SHARD-002", "crates/core/src/sim/harvest.rs", 16)],
        "{:?}",
        report.violations
    );
}

#[test]
fn float_rules_fire_through_a_depth_2_chain_from_the_carry_pass() {
    // transmit-module function (every fn there roots the scan) ->
    // helper with an evidenced `+=`, a float branch and a `.fold()`.
    // The plain `= 1.0` rebind inside the branch stays silent.
    let report = lint_sources(&[
        (
            "crates/core/src/sim/transmit.rs",
            include_str!("fixtures/float_entry.rs"),
        ),
        (
            "crates/core/src/sim/carry.rs",
            include_str!("fixtures/float_fold.rs"),
        ),
    ]);
    let hits: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.path.as_str(), v.line))
        .collect();
    assert_eq!(
        hits,
        vec![
            ("NF-FLOAT-001", "crates/core/src/sim/carry.rs", 10),
            ("NF-FLOAT-002", "crates/core/src/sim/carry.rs", 12),
            ("NF-FLOAT-001", "crates/core/src/sim/carry.rs", 15),
        ],
        "{:?}",
        report.violations
    );
    for v in &report.violations {
        assert_eq!(
            v.chain,
            vec!["core::run", "core::blend_fixture"],
            "witness chain on {}",
            v.rule
        );
    }
    let accum = report.violations.first().expect("accumulation hit");
    assert!(
        accum
            .message
            .contains("accumulates floating-point values (`+=`)"),
        "{}",
        accum.message
    );
    let cmp = report
        .violations
        .iter()
        .find(|v| v.rule == "NF-FLOAT-002")
        .expect("comparison hit");
    assert!(
        cmp.message.contains("floating-point comparison (`>`)"),
        "{}",
        cmp.message
    );
}

#[test]
fn float_rules_are_quiet_for_the_integer_carry_pass() {
    // The invariant the rules protect, verbatim: u64 accumulation,
    // integer branches, and a plain-`=` float derivation — all silent.
    let report = lint_sources(&[(
        "crates/core/src/sim/transmit.rs",
        include_str!("fixtures/float_clean.rs"),
    )]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn nv_rule_is_quiet_when_every_path_is_commit_disciplined() {
    // Identical mutator, but the only entry point carries a commit
    // marker — and the NV type's own method writes are sanctioned
    // outright.
    let report = lint_sources(&[
        (
            "crates/nvp/src/nvstate.rs",
            include_str!("fixtures/nv_state.rs"),
        ),
        (
            "crates/core/src/cleanup.rs",
            include_str!("fixtures/nv_entry_commit.rs"),
        ),
    ]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn float_generic_close_fixture_reports_only_its_allocations() {
    // `let v: Vec<f64> = …` closes a type argument list right before
    // `=`; the old token-shape check read that as `>=` and, with `f64`
    // as float evidence, reported a phantom NF-FLOAT-002. The fixture's
    // only findings are its two genuine hot-path allocations.
    let report = lint_sources(&[(
        "crates/core/src/sim/transmit.rs",
        include_str!("fixtures/float_generic.rs"),
    )]);
    let hits: Vec<(&str, u32)> = report.violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(
        hits,
        vec![("NF-ALLOC-001", 2), ("NF-ALLOC-001", 3)],
        "{:?}",
        report.violations
    );
}

#[test]
fn float_rules_are_quiet_for_generic_closes() {
    let report = lint_sources(&[(
        "crates/core/src/sim/transmit.rs",
        include_str!("fixtures/float_generic_clean.rs"),
    )]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}
