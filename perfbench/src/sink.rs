//! A byte-counting, hashing event-log sink: the writer the
//! `tiered_offload` workload hands to `EventLogObserver::from_writer`,
//! so the log is fully rendered and written but never touches a disk.

use crate::digest::Fnv;
use std::cell::Cell;
use std::io::Write;
use std::rc::Rc;

/// What the sink has seen so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkState {
    /// Bytes written.
    pub bytes: u64,
    /// FNV-1a over every byte written, in order.
    pub hash: Fnv,
}

/// A [`Write`] sink that keeps only a byte count and a running hash.
/// Clones share one state, so the benchmark keeps a handle while the
/// observer owns the writer.
#[derive(Debug, Clone, Default)]
pub struct HashingSink {
    state: Rc<Cell<SinkState>>,
}

impl HashingSink {
    /// The bytes and hash written so far.
    #[must_use]
    pub fn state(&self) -> SinkState {
        self.state.get()
    }
}

impl Write for HashingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut state = self.state.get();
        state.bytes += buf.len() as u64;
        state.hash.bytes(buf);
        self.state.set(state);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neofog_core::sim::{render_jsonl, EventLogObserver, SimEvent, SimObserver, Simulator};
    use std::cell::RefCell;

    /// Renders every event itself, the way the log observer does.
    struct Rendered(Rc<RefCell<(u64, Vec<u8>)>>);

    impl SimObserver for Rendered {
        fn on_event(&mut self, event: &SimEvent) {
            let mut state = self.0.borrow_mut();
            if let SimEvent::SlotBegan { slot } = *event {
                state.0 = slot;
            }
            let line = render_jsonl(state.0, event);
            state.1.extend_from_slice(line.as_bytes());
        }
    }

    #[test]
    fn byte_count_equals_the_rendered_line_lengths() {
        let sink = HashingSink::default();
        let rendered = Rc::new(RefCell::new((0, Vec::new())));
        let mut sim = Simulator::new(crate::workloads::small_tiered_config(1))
            .expect("small config is valid");
        sim.attach_observer(Box::new(EventLogObserver::from_writer(Box::new(
            sink.clone(),
        ))));
        sim.attach_observer(Box::new(Rendered(Rc::clone(&rendered))));
        sim.advance(6);
        let rendered = rendered.borrow();
        let mut expect = Fnv::default();
        expect.bytes(&rendered.1);
        assert!(!rendered.1.is_empty());
        assert_eq!(sink.state().bytes, rendered.1.len() as u64);
        assert_eq!(sink.state().hash, expect);
    }
}
