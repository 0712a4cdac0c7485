//! NF-SHARD fixture, fused pass: the shard driver's `sweep` runs its
//! stage group node by node. It is a sweep root (sweep-shaped name in
//! a `SHARD_ENTRY_FILES` path); the stages it calls are reached only
//! through the dotted `.node_sweep(` call.

fn sweep<S: Stage>(stages: &S, view: &mut NodeView, sink: &mut ShardSink) {
    stages.node_sweep(view, sink);
}
