//! The flight recorder: a fixed-capacity lock-free ring of recent span
//! events, readable at any time without stopping writers.
//!
//! Every completed span is published into the ring with a per-slot seqlock
//! built from safe atomics (the workspace forbids `unsafe`): the writer
//! claims a slot by a single `fetch_add` on the global cursor, marks the
//! slot's sequence odd (write in progress), stores the six payload words,
//! then marks it even. A reader snapshots the sequence, copies the words,
//! and re-checks the sequence — a changed or odd sequence means a torn read
//! and the slot is skipped. A writer that laps the ring while a reader is
//! mid-copy is likewise detected by the sequence check. The ring is a
//! diagnostic buffer: under extreme contention a reader may drop a slot, but
//! it never observes a torn event and never blocks a writer.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::stage::Stage;

/// One completed span, as stored in (and read back from) the flight ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The stage this span measured.
    pub stage: Stage,
    /// Nesting depth at record time (0 = root span on its thread).
    pub depth: u8,
    /// Small per-process thread id (not the OS tid).
    pub thread: u32,
    /// Span start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub duration_us: u64,
    /// Free-form attribute (e.g. a rel-type id or candidate count).
    pub attr: u64,
    /// Raw trace id of the request this span belonged to; `0` when the span
    /// ran outside any request trace (publish path, bare attachment).
    pub trace: u64,
    /// This span's id within its trace (`0` when untraced).
    pub span_id: u32,
    /// The parent span's id within its trace (`0` = root or untraced).
    pub parent_span: u32,
}

impl SpanEvent {
    fn pack_word0(&self) -> u64 {
        (self.stage as u64) | (u64::from(self.depth) << 8) | (u64::from(self.thread) << 16)
    }

    fn pack_word5(&self) -> u64 {
        u64::from(self.span_id) | (u64::from(self.parent_span) << 32)
    }

    fn unpack(words: [u64; 6]) -> Option<SpanEvent> {
        let stage = Stage::from_raw((words[0] & 0xff) as u8)?;
        Some(SpanEvent {
            stage,
            depth: ((words[0] >> 8) & 0xff) as u8,
            thread: (words[0] >> 16) as u32,
            start_us: words[1],
            duration_us: words[2],
            attr: words[3],
            trace: words[4],
            span_id: (words[5] & 0xffff_ffff) as u32,
            parent_span: (words[5] >> 32) as u32,
        })
    }

    /// Renders the event as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"stage\":\"{}\",\"depth\":{},\"thread\":{},\"start_us\":{},\"duration_us\":{},\
             \"attr\":{},\"trace\":{},\"span_id\":{},\"parent_span\":{}}}",
            self.stage.name(),
            self.depth,
            self.thread,
            self.start_us,
            self.duration_us,
            self.attr,
            self.trace,
            self.span_id,
            self.parent_span
        )
    }
}

struct Slot {
    /// Even = consistent, odd = write in progress; 0 = never written.
    /// The ticket that wrote the slot is recoverable as `(seq - 2) / 2`.
    seq: AtomicU64,
    words: [AtomicU64; 6],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// Fixed-capacity lock-free ring of the most recent [`SpanEvent`]s.
pub struct FlightRing {
    slots: Vec<Slot>,
    mask: u64,
    cursor: AtomicU64,
}

impl std::fmt::Debug for FlightRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRing")
            .field("capacity", &self.slots.len())
            // lint: ordering-ok(diagnostic count; no payload depends on it)
            .field("written", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRing {
    /// A ring holding the latest `capacity` events; `capacity` is rounded up
    /// to a power of two (minimum 8).
    pub fn new(capacity: usize) -> FlightRing {
        let capacity = capacity.max(8).next_power_of_two();
        FlightRing {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            mask: (capacity - 1) as u64,
            cursor: AtomicU64::new(0),
        }
    }

    /// The (power-of-two) number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (may exceed [`capacity`](Self::capacity)).
    pub fn pushed(&self) -> u64 {
        // lint: ordering-ok(monotonic statistics counter; readers tolerate staleness)
        self.cursor.load(Ordering::Relaxed)
    }

    /// Publishes an event, overwriting the oldest slot when full.
    /// Wait-free for writers: one `fetch_add` plus eight stores.
    ///
    /// Memory-ordering recipe (the classic safe-atomics seqlock writer):
    /// mark the slot odd, `fence(Release)` so the payload stores cannot
    /// become visible before the odd mark, store the payload relaxed, then
    /// publish the even sequence with `Release` so a reader that observes
    /// it also observes the payload. An earlier version used a `Release`
    /// store for the odd mark and no fence, which does not stop the
    /// payload stores from being reordered *above* the odd mark on weakly
    /// ordered hardware — a reader could then copy a half-overwritten
    /// payload yet still see a stable even sequence.
    pub fn push(&self, event: &SpanEvent) {
        // lint: ordering-ok(slot claim only distributes tickets; the slot's own seqlock orders the payload)
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        // lint: ordering-ok(the Release fence below orders this odd mark before the payload stores)
        slot.seq.store(2 * ticket + 1, Ordering::Relaxed);
        // lint: ordering-ok(Release fence: payload stores cannot be reordered before the odd mark)
        fence(Ordering::Release);
        // lint: ordering-ok(payload ordered by the fences and the final Release store)
        slot.words[0].store(event.pack_word0(), Ordering::Relaxed);
        // lint: ordering-ok(payload ordered by the fences and the final Release store)
        slot.words[1].store(event.start_us, Ordering::Relaxed);
        // lint: ordering-ok(payload ordered by the fences and the final Release store)
        slot.words[2].store(event.duration_us, Ordering::Relaxed);
        // lint: ordering-ok(payload ordered by the fences and the final Release store)
        slot.words[3].store(event.attr, Ordering::Relaxed);
        // lint: ordering-ok(payload ordered by the fences and the final Release store)
        slot.words[4].store(event.trace, Ordering::Relaxed);
        // lint: ordering-ok(payload ordered by the fences and the final Release store)
        slot.words[5].store(event.pack_word5(), Ordering::Relaxed);
        // lint: ordering-ok(Release publish: a reader that Acquires this even value sees the whole payload)
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Copies out the current contents, oldest first.
    ///
    /// Slots being overwritten during the scan are skipped (seqlock
    /// validation), so a snapshot taken under heavy write load may hold
    /// fewer than `capacity` events; it never holds a torn one.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let mut events: Vec<(u64, SpanEvent)> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            // lint: ordering-ok(Acquire pairs with the writer's Release publish; an even value here means the payload below is visible)
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before == 0 || seq_before % 2 == 1 {
                continue; // never written, or write in progress
            }
            let words = [
                // lint: ordering-ok(payload loads validated by the seq re-check after the Acquire fence)
                slot.words[0].load(Ordering::Relaxed),
                // lint: ordering-ok(payload loads validated by the seq re-check after the Acquire fence)
                slot.words[1].load(Ordering::Relaxed),
                // lint: ordering-ok(payload loads validated by the seq re-check after the Acquire fence)
                slot.words[2].load(Ordering::Relaxed),
                // lint: ordering-ok(payload loads validated by the seq re-check after the Acquire fence)
                slot.words[3].load(Ordering::Relaxed),
                // lint: ordering-ok(payload loads validated by the seq re-check after the Acquire fence)
                slot.words[4].load(Ordering::Relaxed),
                // lint: ordering-ok(payload loads validated by the seq re-check after the Acquire fence)
                slot.words[5].load(Ordering::Relaxed),
            ];
            // Acquire fence: the payload loads above cannot be reordered
            // below the sequence re-check (a plain Acquire *load* would
            // only order later accesses, not the earlier payload loads).
            // lint: ordering-ok(Acquire fence pins the payload loads before the re-check)
            fence(Ordering::Acquire);
            // If the sequence moved, a writer raced us and the copied
            // words may be torn — drop them.
            // lint: ordering-ok(re-check is ordered by the Acquire fence above; Relaxed load suffices)
            if slot.seq.load(Ordering::Relaxed) != seq_before {
                continue;
            }
            if let Some(event) = SpanEvent::unpack(words) {
                events.push(((seq_before - 2) / 2, event));
            }
        }
        events.sort_by_key(|(ticket, _)| *ticket);
        events.into_iter().map(|(_, event)| event).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(stage: Stage, start_us: u64) -> SpanEvent {
        SpanEvent {
            stage,
            depth: 1,
            thread: 7,
            start_us,
            duration_us: 42,
            attr: 5,
            trace: 9,
            span_id: 3,
            parent_span: 1,
        }
    }

    #[test]
    fn round_trips_events_in_push_order() {
        let ring = FlightRing::new(8);
        for i in 0..5 {
            ring.push(&event(Stage::Discovery, i));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 5);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.start_us, i as u64);
            assert_eq!(e.stage, Stage::Discovery);
            assert_eq!(e.thread, 7);
            assert_eq!(e.trace, 9);
            assert_eq!(e.span_id, 3);
            assert_eq!(e.parent_span, 1);
        }
    }

    #[test]
    fn wraps_keeping_the_newest_events() {
        let ring = FlightRing::new(8);
        for i in 0..20 {
            ring.push(&event(Stage::Algorithm, i));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 8);
        let starts: Vec<u64> = got.iter().map(|e| e.start_us).collect();
        assert_eq!(starts, (12..20).collect::<Vec<u64>>());
        assert_eq!(ring.pushed(), 20);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRing::new(0).capacity(), 8);
        assert_eq!(FlightRing::new(100).capacity(), 128);
        assert_eq!(FlightRing::new(256).capacity(), 256);
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        use std::sync::Arc;
        let ring = Arc::new(FlightRing::new(64));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        // Tie all fields to one value so tearing is visible.
                        let v = t * 1_000_000 + i;
                        ring.push(&SpanEvent {
                            stage: Stage::Request,
                            depth: 0,
                            thread: t as u32,
                            start_us: v,
                            duration_us: v,
                            attr: v,
                            trace: v,
                            span_id: v as u32 & 0xffff,
                            parent_span: v as u32 & 0xffff,
                        });
                    }
                })
            })
            .collect();
        for _ in 0..100 {
            for e in ring.snapshot() {
                assert_eq!(e.start_us, e.duration_us);
                assert_eq!(e.start_us, e.attr);
                assert_eq!(e.start_us, e.trace);
                assert_eq!(e.thread as u64, e.start_us / 1_000_000);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(ring.pushed(), 40_000);
    }
}
