//! NF-SHARD fixture, a stage body outside the entry files: it is no
//! root on its own, so only the fused pass that calls it puts it under
//! the shard rules — where naming the full-fleet counters is the
//! global-index escape hatch NF-SHARD-001 exists to catch.

pub struct TallyStage;

impl Stage for TallyStage {
    fn node_sweep(&self, view: &mut NodeView, sink: &mut ShardSink) {
        let totals: &mut NetworkMetrics = sink.fleet();
        totals.bump(view.node);
    }
}
