//! The admission queue: a bounded, condvar-signalled, **two-lane** queue
//! between client threads and the dispatcher, with the wave-forming pops on
//! the consumer side.
//!
//! Bounded depth is the service's backpressure mechanism: when a lane is
//! full, [`AdmissionQueue::push`] fails immediately instead of queueing
//! unbounded work — under overload the caller learns *now*, while the
//! answer "try elsewhere / later" is still cheap (the same reasoning as any
//! load-shedding front-end). The two lanes are the QoS mechanism: each
//! [`AdmissionClass`] has its own bound, and a wave drains the interactive
//! lane completely before taking the first batch item, so a batch flood can
//! fill (and shed from) its own lane without adding a single queued item in
//! front of interactive traffic. Shutdown flips a flag: producers are
//! rejected, but everything already admitted is still drained, which is
//! what makes service shutdown graceful.
//!
//! A wave is formed in two steps. [`AdmissionQueue::pop_wave`] takes what is
//! queued the moment something is — it never sleeps on a non-empty queue.
//! Only a wave the dispatcher has found real work in comes back for company:
//! [`AdmissionQueue::pop_joiners`] is the bounded batching window.

use crate::request::AdmissionClass;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitError {
    /// The class's lane is at capacity; `depth` is its current length.
    Overloaded { depth: usize },
    /// Shutdown has begun; no new work is admitted.
    ShuttingDown,
}

struct State<T> {
    /// One FIFO per admission class, indexed by [`AdmissionClass::lane`];
    /// each item carries its admission number.
    lanes: [VecDeque<(u64, T)>; 2],
    /// The next admission number: a total order over both lanes.
    next_seq: u64,
    shutting_down: bool,
}

impl<T> State<T> {
    fn total(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    fn depths(&self) -> [usize; 2] {
        [self.lanes[0].len(), self.lanes[1].len()]
    }

    /// Pops up to `room` items admitted before `before`, interactive lane
    /// first, FIFO within a lane.
    fn take(&mut self, room: usize, before: u64) -> Vec<T> {
        let mut taken = Vec::with_capacity(self.total().min(room));
        for lane in &mut self.lanes {
            while taken.len() < room && lane.front().is_some_and(|&(seq, _)| seq < before) {
                taken.extend(lane.pop_front().map(|(_, item)| item));
            }
        }
        taken
    }
}

/// The first pop of a wave.
#[derive(Debug, PartialEq)]
pub(crate) struct Popped<T> {
    /// Up to `max_batch` items, interactive lane first.
    pub(crate) items: Vec<T>,
    /// When the consumer first saw the queue non-empty: the instant the
    /// wave's batching window is counted from.
    pub(crate) sighted: Instant,
}

/// A bounded multi-producer two-lane queue whose consumer pops *waves*:
/// whatever is queued, up to a cap, interactive lane first — and then, if
/// it chooses to hold the wave open, the items that arrive meanwhile.
pub(crate) struct AdmissionQueue<T> {
    /// Per-lane capacity, indexed like [`State::lanes`].
    capacities: [usize; 2],
    state: Mutex<State<T>>,
    nonempty: Condvar,
}

impl<T> AdmissionQueue<T> {
    pub(crate) fn new(interactive_capacity: usize, batch_capacity: usize) -> Self {
        AdmissionQueue {
            capacities: [interactive_capacity.max(1), batch_capacity.max(1)],
            state: Mutex::new(State {
                lanes: [VecDeque::new(), VecDeque::new()],
                next_seq: 0,
                shutting_down: false,
            }),
            nonempty: Condvar::new(),
        }
    }

    /// Admits one item into its class's lane; fails fast when that lane is
    /// full or the queue is shutting down. `admitted(depth)` runs with the
    /// lane's depth after the push, **before the item becomes visible to
    /// the consumer** — whatever it records precedes anything a wave
    /// records about the item.
    pub(crate) fn push(
        &self,
        class: AdmissionClass,
        job: T,
        admitted: impl FnOnce(usize),
    ) -> Result<(), AdmitError> {
        let lane = class.lane();
        let mut state = self.lock();
        if state.shutting_down {
            return Err(AdmitError::ShuttingDown);
        }
        if state.lanes[lane].len() >= self.capacities[lane] {
            return Err(AdmitError::Overloaded {
                depth: state.lanes[lane].len(),
            });
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.lanes[lane].push_back((seq, job));
        admitted(state.lanes[lane].len());
        self.nonempty.notify_one();
        Ok(())
    }

    /// Items currently queued, by lane.
    pub(crate) fn depths(&self) -> [usize; 2] {
        self.lock().depths()
    }

    /// Whether shutdown has begun.
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.lock().shutting_down
    }

    /// Begins shutdown: future pushes fail, a held window closes, and once
    /// both lanes drain, [`AdmissionQueue::pop_wave`] returns `None`.
    pub(crate) fn shutdown(&self) {
        self.lock().shutting_down = true;
        self.nonempty.notify_all();
    }

    /// Blocks until at least one item is queued, then pops what is queued
    /// **right now** — up to `max_batch` items, interactive lane first: a
    /// batch item only rides in a wave with spare room after every queued
    /// interactive item. Under backlog that is a full wave; on an idle
    /// service it is the one request that woke the consumer, which is not
    /// made to wait for company it may not need. Returns `None` only when
    /// both lanes are empty *and* the queue is shutting down: the
    /// dispatcher's signal to exit after every admitted query has been
    /// served.
    pub(crate) fn pop_wave(&self, max_batch: usize) -> Option<Popped<T>> {
        let mut state = self.lock();
        while state.total() == 0 {
            if state.shutting_down {
                return None;
            }
            state = self.nonempty.wait(state).expect("admission queue poisoned");
        }
        let sighted = Instant::now();
        let items = state.take(max_batch.max(1), u64::MAX);
        Some(Popped { items, sighted })
    }

    /// The batching window of a wave that is being held open: blocks until
    /// something can join it or the window closes, and returns the joiners
    /// — up to `room` items, interactive lane first and FIFO — with whether
    /// the window is **still open** afterwards.
    ///
    /// A queued item `fence` flags (an update: it cannot apply under a wave
    /// that has already read its snapshot) closes the window, and neither
    /// it nor anything admitted after it — in either lane — joins: they
    /// form the next wave, fence first, so admission order still decides
    /// which snapshot a request reads. The window also closes at
    /// `deadline`, when `room` is used up, and when shutdown begins.
    pub(crate) fn pop_joiners(
        &self,
        room: usize,
        deadline: Instant,
        fence: impl Fn(&T) -> bool,
    ) -> (Vec<T>, bool) {
        let mut state = self.lock();
        loop {
            let fenced_at = state
                .lanes
                .iter()
                .filter_map(|lane| lane.iter().find(|(_, item)| fence(item)))
                .map(|&(seq, _)| seq)
                .min();
            let joiners = state.take(room, fenced_at.unwrap_or(u64::MAX));
            let open = fenced_at.is_none() && joiners.len() < room && !state.shutting_down;
            if !joiners.is_empty() || !open {
                return (joiners, open);
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return (joiners, false);
            };
            let (guard, _) = self
                .nonempty
                .wait_timeout(state, left)
                .expect("admission queue poisoned");
            state = guard;
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().expect("admission queue poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const I: AdmissionClass = AdmissionClass::Interactive;
    const B: AdmissionClass = AdmissionClass::Batch;

    /// Pushes and returns the lane depth the push reported.
    fn push(q: &AdmissionQueue<u32>, class: AdmissionClass, job: u32) -> Result<usize, AdmitError> {
        let mut depth = 0;
        q.push(class, job, |d| depth = d).map(|()| depth)
    }

    fn wave(q: &AdmissionQueue<u32>, max_batch: usize) -> Vec<u32> {
        q.pop_wave(max_batch).expect("queue not drained").items
    }

    /// Items at or above 1000 stand for updates.
    fn is_update(item: &u32) -> bool {
        *item >= 1000
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(30)
    }

    #[test]
    fn push_pop_and_depth() {
        let q = AdmissionQueue::new(4, 4);
        assert_eq!(push(&q, I, 1), Ok(1));
        assert_eq!(push(&q, I, 2), Ok(2));
        assert_eq!(q.depths(), [2, 0]);
        let popped = q.pop_wave(8).unwrap();
        assert_eq!(popped.items, vec![1, 2]);
        assert_eq!(q.depths(), [0, 0], "the pop drains what it took");
    }

    #[test]
    fn overload_rejects_with_current_lane_depth() {
        let q = AdmissionQueue::new(2, 2);
        push(&q, I, 1).unwrap();
        push(&q, I, 2).unwrap();
        assert_eq!(push(&q, I, 3), Err(AdmitError::Overloaded { depth: 2 }));
        // Popping frees capacity again.
        wave(&q, 1);
        assert_eq!(push(&q, I, 3), Ok(2));
    }

    #[test]
    fn lanes_have_independent_bounds() {
        let q = AdmissionQueue::new(8, 2);
        // Flood the batch lane to its bound...
        push(&q, B, 100).unwrap();
        push(&q, B, 101).unwrap();
        assert_eq!(push(&q, B, 102), Err(AdmitError::Overloaded { depth: 2 }));
        // ...interactive admission is untouched.
        assert_eq!(push(&q, I, 1), Ok(1));
        assert_eq!(q.depths(), [1, 2]);
    }

    #[test]
    fn interactive_preempts_batch_in_wave_formation() {
        let q = AdmissionQueue::new(8, 8);
        push(&q, B, 100).unwrap();
        push(&q, B, 101).unwrap();
        push(&q, I, 1).unwrap();
        push(&q, I, 2).unwrap();
        // Interactive items lead the wave despite arriving later...
        let popped = q.pop_wave(3).unwrap();
        assert_eq!(popped.items, vec![1, 2, 100]);
        assert_eq!(q.depths(), [0, 1]);
        // ...and batch items are never starved once the lane is reached.
        assert_eq!(wave(&q, 3), vec![101]);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let q = AdmissionQueue::new(0, 0);
        assert_eq!(push(&q, I, 1), Ok(1));
        assert!(matches!(push(&q, I, 2), Err(AdmitError::Overloaded { .. })));
    }

    #[test]
    fn waves_are_capped_at_max_batch() {
        let q = AdmissionQueue::new(16, 16);
        for i in 0..5 {
            push(&q, I, i).unwrap();
        }
        assert_eq!(wave(&q, 3), vec![0, 1, 2]);
        assert_eq!(wave(&q, 3), vec![3, 4]);
    }

    #[test]
    fn window_waits_for_stragglers_and_closes_early_when_full() {
        let q = AdmissionQueue::new(16, 16);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // The consumer pops the first item, holds the window open,
                // and should collect the straggler pushed shortly after.
                assert_eq!(wave(&q, 2), vec![1]);
                let (joiners, open) = q.pop_joiners(1, far(), is_update);
                assert_eq!(joiners, vec![2], "window must admit the straggler");
                assert!(!open, "no room left: the window is closed");
            });
            push(&q, I, 1).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            push(&q, B, 2).unwrap();
            // Room used up → the window closes long before its 30 s
            // deadline (the join below would otherwise hang the test).
        });
    }

    #[test]
    fn the_window_closes_at_its_deadline() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(4, 4);
        let deadline = Instant::now() + Duration::from_millis(30);
        assert_eq!(q.pop_joiners(4, deadline, is_update), (vec![], false));
        assert!(Instant::now() >= deadline);
        // A deadline already past takes what is queued and does not wait.
        push(&q, I, 7).unwrap();
        assert_eq!(q.pop_joiners(4, deadline, is_update), (vec![7], true));
        assert_eq!(q.pop_joiners(4, deadline, is_update), (vec![], false));
    }

    #[test]
    fn joiners_come_interactive_first_and_are_capped_by_room() {
        let q = AdmissionQueue::new(8, 8);
        push(&q, B, 100).unwrap();
        push(&q, I, 1).unwrap();
        push(&q, B, 101).unwrap();
        push(&q, I, 2).unwrap();
        assert_eq!(q.pop_joiners(3, far(), is_update), (vec![1, 2, 100], false));
        assert_eq!(
            q.depths(),
            [0, 1],
            "what did not fit waits for the next wave"
        );
    }

    #[test]
    fn joiners_stop_at_the_first_update_in_admission_order() {
        let q = AdmissionQueue::new(8, 8);
        push(&q, I, 1).unwrap();
        push(&q, B, 100).unwrap();
        push(&q, I, 1000).unwrap(); // the update
        push(&q, I, 2).unwrap();
        push(&q, B, 101).unwrap();
        // Only what was admitted before the update joins — in *both* lanes —
        // and the window closes.
        assert_eq!(q.pop_joiners(8, far(), is_update), (vec![1, 100], false));
        // The update leads the next wave, ahead of everything behind it.
        assert_eq!(wave(&q, 8), vec![1000, 2, 101]);

        // An update in the batch lane fences interactive items behind it.
        push(&q, B, 1001).unwrap();
        push(&q, I, 3).unwrap();
        assert_eq!(q.pop_joiners(8, far(), is_update), (vec![], false));
        assert_eq!(wave(&q, 8), vec![3, 1001]);
    }

    #[test]
    fn an_update_arriving_mid_window_closes_it() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(8, 8);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| q.pop_joiners(8, far(), is_update));
            std::thread::sleep(Duration::from_millis(20));
            push(&q, I, 1000).unwrap();
            assert_eq!(holder.join().unwrap(), (vec![], false));
        });
        assert_eq!(q.depths(), [1, 0]);
    }

    #[test]
    fn shutdown_rejects_producers_but_drains_consumers() {
        let q = AdmissionQueue::new(8, 8);
        push(&q, I, 1).unwrap();
        push(&q, B, 2).unwrap();
        q.shutdown();
        assert_eq!(push(&q, I, 3), Err(AdmitError::ShuttingDown));
        // Already-admitted items still come out...
        assert_eq!(wave(&q, 1), vec![1]);
        // ...a held window takes what is there but does not stay open...
        assert_eq!(q.pop_joiners(4, far(), is_update), (vec![2], false));
        // ...and only then does the consumer learn it is done.
        assert_eq!(q.pop_wave(4), None);
    }

    #[test]
    fn blocked_consumer_wakes_on_shutdown() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(4, 4);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| q.pop_wave(4));
            std::thread::sleep(Duration::from_millis(20));
            q.shutdown();
            assert_eq!(waiter.join().unwrap(), None);
        });
    }

    #[test]
    fn shutdown_wakes_a_held_window() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(4, 4);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| q.pop_joiners(4, far(), is_update));
            std::thread::sleep(Duration::from_millis(20));
            q.shutdown();
            assert_eq!(holder.join().unwrap(), (vec![], false));
        });
    }

    #[test]
    fn the_admission_callback_runs_before_the_item_can_be_popped() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(4, 4);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let items = wave(&q, 4);
                seen.lock().unwrap().push("popped");
                items
            });
            q.push(I, 1, |depth| {
                // The consumer is blocked on the queue lock this runs under.
                std::thread::sleep(Duration::from_millis(20));
                assert_eq!(depth, 1);
                seen.lock().unwrap().push("admitted");
            })
            .unwrap();
            assert_eq!(consumer.join().unwrap(), vec![1]);
        });
        assert_eq!(seen.into_inner().unwrap(), vec!["admitted", "popped"]);
    }
}
