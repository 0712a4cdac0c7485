//! NF-SHARD fixture, fused pass: the shard driver's pass runs its
//! stage group node by node. The pass is a sweep root (sweep-shaped
//! name in a `SHARD_ENTRY_FILES` path); the stages it calls are
//! reached only through the dotted `.node_sweep(` call.

pub struct Pass<S>(S);

impl<S: Stage> Sweep for Pass<S> {
    fn sweep(&self, view: &mut NodeView, sink: &mut ShardSink) {
        self.0.node_sweep(view, sink);
    }
}
