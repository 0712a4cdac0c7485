//! NF-SHARD clean twin for the sink path: the sweep writes through its
//! shard-local `ShardSink`, and `ShardSink` is the only type with an
//! `emit` method, so the dotted call cannot reach the event bus.

pub struct ShardSink {
    total: u64,
}

impl ShardSink {
    pub fn emit(&mut self, value: u64) {
        self.total += value;
    }
}

pub fn tally_sweep(view: &mut NodeView, sink: &mut ShardSink) {
    sink.emit(7);
    view.bump();
}
