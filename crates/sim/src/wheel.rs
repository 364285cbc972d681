//! An indexed time-wheel event queue.
//!
//! Gate delays in this kit are a few hundred ps, so almost every scheduled
//! event lands within a few thousand ps of the current time. The wheel
//! exploits that: a ring of [`SPAN`] one-picosecond slots indexed by
//! `time % SPAN`, with a two-level occupancy bitmap (`u64` words scanned
//! via `trailing_zeros`) so finding the next non-empty slot is a handful
//! of word tests instead of a heap sift. Events beyond the wheel's span
//! (power-gating collapse/restore scheduled microseconds out, testbench
//! stimulus) overflow into a [`BinaryHeap`] and are drained back into the
//! wheel as the base cursor advances.
//!
//! Each slot is a FIFO list threaded through one contiguous node pool: a
//! slot costs a head/tail pair, a push links one node, and a popped node
//! goes on a free list for the next push, so a run allocates only while
//! its peak of in-flight events grows.
//!
//! Ordering is **bit-identical** to the `BinaryHeap<Reverse<Event>>` it
//! replaces: events pop in `(time, seq)` order. Within the active window
//! a slot holds exactly one timestamp, and its list is in `seq` order:
//! pushes arrive in `seq` order and append, and an overflow drain — the
//! one path that can deliver an event older than a slot's tail — links
//! its event in at its `seq` position.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled value change. Totally ordered by `(time, seq, ..)` so the
/// queue pops in schedule order within a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Event {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    pub(crate) net: u32,
    pub(crate) value_tag: u8,
}

/// Wheel span in picoseconds (and slots — 1 ps each). Power of two so the
/// modulo is a mask.
const SPAN: u64 = 8192;
const WORDS: usize = (SPAN as usize) / 64;

/// End of a list: no node.
const NIL: u32 = u32::MAX;

/// A pooled list cell: one queued event and the next node of its list.
#[derive(Debug, Clone, Copy)]
struct Node {
    ev: Event,
    next: u32,
}

/// One slot's FIFO, as pool indices (`NIL` when empty).
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// The event queue: near-future ring + far-future overflow heap.
#[derive(Debug)]
pub(crate) struct TimeWheel {
    slots: Vec<List>,
    /// Occupancy bitmap over `slots`; bit `s` set iff `slots[s]` non-empty.
    words: [u64; WORDS],
    /// Lower bound on every queued event's time; scan origin.
    base: u64,
    overflow: BinaryHeap<Reverse<Event>>,
    /// Nodes of every slot list, `current` and the free list.
    pool: Vec<Node>,
    /// Head of the recycled nodes.
    free: u32,
    /// Events in `slots` and `current` (not counting `overflow`).
    queued: usize,
    /// The claimed slot being drained: events of one timestamp, in `seq`
    /// order.
    current: u32,
    /// Base advances (slot claims) — the wheel-throughput numerator.
    pub(crate) advances: u64,
    /// Events that missed the window and went to the overflow heap.
    pub(crate) overflows: u64,
}

impl TimeWheel {
    pub(crate) fn new() -> Self {
        Self {
            slots: vec![EMPTY; SPAN as usize],
            words: [0; WORDS],
            base: 0,
            overflow: BinaryHeap::new(),
            pool: Vec::new(),
            free: NIL,
            queued: 0,
            current: NIL,
            advances: 0,
            overflows: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queued == 0 && self.overflow.is_empty()
    }

    /// Queues an event. `ev.time` must be `>= self.base` (the simulator
    /// never schedules into the past).
    pub(crate) fn push(&mut self, ev: Event) {
        debug_assert!(ev.time >= self.base, "scheduled into the past");
        if ev.time < self.base + SPAN {
            let n = self.alloc(ev);
            self.append((ev.time % SPAN) as usize, n);
        } else {
            self.overflow.push(Reverse(ev));
            self.overflows += 1;
        }
    }

    /// Pops the earliest event whose time is `<= deadline`, or `None`
    /// (leaving the queue untouched) if the next event lies beyond it.
    pub(crate) fn pop_le(&mut self, deadline: u64) -> Option<Event> {
        // Finish draining the in-flight timestamp first: `current` always
        // holds the globally earliest events (nothing earlier can be
        // scheduled once its timestamp is being processed).
        if self.current == NIL {
            self.claim(deadline)?;
        }
        let n = self.current;
        let Node { ev, next } = self.pool[n as usize];
        if ev.time > deadline {
            return None;
        }
        self.current = next;
        self.pool[n as usize].next = self.free;
        self.free = n;
        self.queued -= 1;
        Some(ev)
    }

    /// Moves the earliest slot into `current` if its time is
    /// `<= deadline`; `None` (claiming nothing) otherwise.
    fn claim(&mut self, deadline: u64) -> Option<()> {
        loop {
            // Slide overflow events into the wheel whenever they fit the
            // window. This must happen before slot selection: a far-future
            // event queued long ago can precede wheel events pushed after
            // the base advanced past its time.
            while let Some(&Reverse(head)) = self.overflow.peek() {
                if head.time >= self.base + SPAN {
                    break;
                }
                self.overflow.pop();
                self.insert_drained(head);
            }

            if self.queued == 0 {
                // Wheel empty: jump the window to the overflow head.
                let &Reverse(head) = self.overflow.peek()?;
                self.base = head.time;
                continue;
            }

            let s = self.next_slot();
            let list = self.slots[s];
            let t = self.pool[list.head as usize].ev.time;
            if t > deadline {
                return None;
            }
            // Claim the whole slot: one timestamp, already in seq order —
            // exactly the (time, seq) order a min-heap would produce.
            self.current = list.head;
            self.slots[s] = EMPTY;
            self.words[s / 64] &= !(1 << (s % 64));
            self.base = t;
            self.advances += 1;
            return Some(());
        }
    }

    /// A pool node holding `ev`, recycled when one is free.
    fn alloc(&mut self, ev: Event) -> u32 {
        let node = Node { ev, next: NIL };
        if self.free == NIL {
            self.pool.push(node);
            (self.pool.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.pool[n as usize].next;
            self.pool[n as usize] = node;
            n
        }
    }

    /// Links node `n` at the tail of slot `s`.
    fn append(&mut self, s: usize, n: u32) {
        let list = &mut self.slots[s];
        if list.head == NIL {
            list.head = n;
            self.words[s / 64] |= 1 << (s % 64);
        } else {
            self.pool[list.tail as usize].next = n;
        }
        list.tail = n;
        self.queued += 1;
    }

    /// Links a drained overflow event into its slot at its `seq`
    /// position: events pushed straight into the slot after the window
    /// reached it can be newer than it.
    fn insert_drained(&mut self, ev: Event) {
        let s = (ev.time % SPAN) as usize;
        let n = self.alloc(ev);
        let (mut prev, mut at) = (NIL, self.slots[s].head);
        while at != NIL && self.pool[at as usize].ev.seq < ev.seq {
            prev = at;
            at = self.pool[at as usize].next;
        }
        if at == NIL {
            self.append(s, n);
            return;
        }
        self.pool[n as usize].next = at;
        if prev == NIL {
            self.slots[s].head = n;
        } else {
            self.pool[prev as usize].next = n;
        }
        self.queued += 1;
    }

    /// Index of the occupied slot with the earliest time. Slots are
    /// scanned from `base`'s slot, wrapping — which is exactly increasing
    /// time order for the window `[base, base + SPAN)`.
    fn next_slot(&self) -> usize {
        debug_assert!(self.queued > 0 && self.current == NIL);
        let b = (self.base % SPAN) as usize;
        let (w0, bit0) = (b / 64, b % 64);
        // Tail of the starting word.
        let masked = self.words[w0] & !((1u64 << bit0) - 1);
        if masked != 0 {
            return w0 * 64 + masked.trailing_zeros() as usize;
        }
        // Remaining words, wrapping; the starting word's head comes last.
        for k in 1..=WORDS {
            let w = (w0 + k) % WORDS;
            let mut word = self.words[w];
            if k == WORDS {
                word &= (1u64 << bit0) - 1;
            }
            if word != 0 {
                return w * 64 + word.trailing_zeros() as usize;
            }
        }
        unreachable!("queued > 0 but bitmap empty");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, seq: u64) -> Event {
        Event {
            time,
            seq,
            net: 0,
            value_tag: 0,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimeWheel::new();
        for &(t, s) in &[(50, 1), (10, 2), (10, 3), (7000, 4), (50, 5)] {
            w.push(ev(t, s));
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| w.pop_le(u64::MAX))
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(order, vec![(10, 2), (10, 3), (50, 1), (50, 5), (7000, 4)]);
        assert!(w.is_empty());
    }

    #[test]
    fn deadline_is_respected_without_losing_events() {
        let mut w = TimeWheel::new();
        w.push(ev(100, 1));
        w.push(ev(200, 2));
        assert_eq!(w.pop_le(150).map(|e| e.seq), Some(1));
        assert_eq!(w.pop_le(150), None);
        assert!(!w.is_empty());
        assert_eq!(w.pop_le(250).map(|e| e.seq), Some(2));
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut w = TimeWheel::new();
        w.push(ev(5, 1));
        w.push(ev(1_000_000, 2)); // way past the span: overflow heap
        w.push(ev(2_000_000, 3));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(5));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(1_000_000));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(2_000_000));
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_event_precedes_later_wheel_pushes() {
        // Regression for the subtle case: an event overflows, the base
        // advances past its time, then a *newer* wheel event is pushed
        // with a later timestamp. The old overflow event must still pop
        // first.
        let mut w = TimeWheel::new();
        w.push(ev(0, 1));
        w.push(ev(10_000, 2)); // overflow (>= SPAN)
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(1));
        // Base is now 0 → after popping, push an event the wheel accepts
        // directly but which must come *after* the overflow one.
        w.push(ev(500, 3));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(3));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(2));
    }

    #[test]
    fn drained_overflow_event_precedes_a_newer_event_in_its_slot() {
        // The one case where a slot's list is not filled in seq order: A
        // overflows, the window then reaches A's slot and C is pushed
        // straight into it, and only afterwards does A drain in behind C.
        let mut w = TimeWheel::new();
        w.push(ev(10_000, 1)); // A: overflow (>= SPAN)
        w.push(ev(2_000, 2)); // B
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(2));
        w.push(ev(10_000, 3)); // C: same slot and time as A, in the window
        assert_eq!(w.overflows, 1, "only A overflowed");
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(1), "A before C");
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(3));
        assert!(w.is_empty());
    }

    #[test]
    fn wrapping_slot_scan_keeps_time_order() {
        let mut w = TimeWheel::new();
        // Advance base into the middle of the ring.
        w.push(ev(5000, 1));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(5000));
        // Now schedule across the wrap boundary (slot indices wrap at 8192).
        w.push(ev(9000, 2)); // slot 808 (wrapped) — but time 9000
        w.push(ev(8000, 3)); // slot 8000 — time 8000, must pop first
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(8000));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(9000));
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        // Drive both queues with the same deterministic, sim-like pattern:
        // each popped event schedules a few more at time + small delay,
        // occasionally far in the future.
        let mut wheel = TimeWheel::new();
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for t in [0u64, 3, 9, 100] {
            for _ in 0..8 {
                seq += 1;
                let e = ev(t + rand() % 50, seq);
                wheel.push(e);
                heap.push(Reverse(e));
            }
        }
        for _ in 0..2000 {
            let a = wheel.pop_le(u64::MAX);
            let b = heap.pop().map(|Reverse(e)| e);
            assert_eq!(a, b);
            let Some(e) = a else { break };
            // Reschedule deterministically from the popped event.
            if e.seq % 3 == 0 {
                seq += 1;
                let delay = if e.seq % 11 == 0 {
                    50_000
                } else {
                    1 + rand() % 300
                };
                let n = ev(e.time + delay, seq);
                wheel.push(n);
                heap.push(Reverse(n));
            }
        }
        assert_eq!(wheel.is_empty(), heap.is_empty());
    }
}
