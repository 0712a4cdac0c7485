//! Scoped fork-join: the intra-simulation sibling of the
//! work-stealing pool.
//!
//! [`run_batch`](super::run_batch) parallelizes *across* simulations —
//! each worker owns a whole [`Simulator`] and results are re-sequenced
//! by job index. The sharded slot kernel needs the opposite shape:
//! one simulation, its columnar node state partitioned into contiguous
//! shards, and one closure per shard running to completion before the
//! coordinating thread continues the phase pipeline. That is a
//! fork-join, not a queue: every task must finish before the next
//! phase (or the event splice) may observe the columns, so work
//! stealing buys nothing and the join barrier is the point.
//!
//! The tasks borrow non-`'static` state (`&mut` column slices, shard
//! scratch), and the workspace forbids `unsafe`, so a persistent
//! worker pool cannot hold them across calls; [`std::thread::scope`]
//! is the sanctioned safe mechanism. Spawn cost is paid per fork —
//! a few microseconds per thread, amortized over column sweeps that
//! walk tens of thousands of nodes per shard. The first task always
//! runs inline on the calling thread, so a one-task fork (the slot
//! kernel's serial path) spawns nothing and allocates nothing, and an
//! `n`-task fork spawns `n − 1` threads while the caller works
//! instead of idling at the join.
//!
//! Determinism contract: tasks share no mutable state (each owns
//! disjoint `&mut` shard slices), so scheduling order is unobservable;
//! ordered output is restored by the caller splicing per-shard event
//! buffers in shard order after the join. The NF-PAR lint rules root
//! here (and at the shard sweeps), flagging interior mutability or
//! unordered iteration reachable from any forked task.
//!
//! [`Simulator`]: crate::sim::Simulator

/// Runs the first task on the calling thread and every other task on
/// its own scoped thread, and joins them all before returning. A
/// single task runs inline without entering a thread scope at all.
///
/// A panicking task propagates the panic to the caller at the join
/// (the remaining tasks still run to completion first), matching the
/// behavior of a panic inside a serial sweep.
pub fn fork_join<I, F>(tasks: I)
where
    I: IntoIterator<Item = F>,
    F: FnOnce() + Send,
{
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else { return };
    let Some(second) = tasks.next() else {
        first();
        return;
    };
    std::thread::scope(|scope| {
        scope.spawn(second);
        for task in tasks {
            scope.spawn(task);
        }
        first();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_run_and_join_before_return() {
        let mut counters = [0u64; 8];
        fork_join(
            counters
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| move || *slot = i as u64 + 1),
        );
        // The join barrier guarantees every write is visible here.
        assert_eq!(counters, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn disjoint_mut_slices_are_forked_safely() {
        let mut data = vec![1u64; 1000];
        fork_join(data.chunks_mut(250).map(|chunk| {
            move || {
                for v in chunk.iter_mut() {
                    *v += 1;
                }
            }
        }));
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    fn first_task_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut ran_on = [None; 3];
        fork_join(
            ran_on
                .iter_mut()
                .map(|slot| move || *slot = Some(std::thread::current().id())),
        );
        assert_eq!(ran_on[0], Some(caller));
        assert!(ran_on[1..]
            .iter()
            .all(|id| id.is_some_and(|id| id != caller)));
    }

    #[test]
    fn empty_task_set_is_a_no_op() {
        fork_join(std::iter::empty::<fn()>());
    }
}
