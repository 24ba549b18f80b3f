//! A closed loop of echoes with a fixed number in flight, driven from
//! inside the runtime: each echo's reply runs [`Record`] on rank 0,
//! which checks it, counts it and sends the next one. No generator
//! thread blocks per request; the thread that started the loop only
//! waits for the stop.

use crate::gen::{echo_input, echo_of};
use crate::outcome::{Outcome, OP_TIMEOUT};
use crate::peer::{request_id, Echo, Record, PHASE_SHIFT};
use crate::util::{Slices, SLICE};
use px_core::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests in flight.
pub const WINDOW: usize = 64;
/// Longest loop the slice counters cover.
const MAX_SLICES: usize = 3000;

struct State {
    phase: u64,
    seed: u64,
    /// Sequence number of the loop's first request.
    first: u64,
    start: Instant,
    stop: AtomicBool,
    issued: AtomicU64,
    settled: AtomicU64,
    wrong: AtomicU64,
    send_errors: AtomicU64,
    slices: Vec<AtomicU64>,
}

static CURRENT: Mutex<Option<Arc<State>>> = Mutex::new(None);

fn reply_to() -> Continuation {
    Continuation::call(Record::id(), Gid::locality_root(LocalityId(0)))
}

fn next(s: &State) -> (u64, u64) {
    // Relaxed: a ticket counter; only uniqueness matters.
    let id = request_id(s.phase, s.issued.fetch_add(1, Ordering::Relaxed));
    (id, echo_input(s.seed, id))
}

/// A running loop; [`Window::stop`] ends it.
pub struct Window(Arc<State>);

impl Window {
    /// Start `WINDOW` echo chains to rank 1, tagged with `phase` and
    /// numbered from `first`.
    pub fn start(rt: &Runtime, seed: u64, phase: u64, first: u64) -> Window {
        let s = Arc::new(State {
            phase,
            seed,
            first,
            start: Instant::now(),
            stop: AtomicBool::new(false),
            issued: AtomicU64::new(first),
            settled: AtomicU64::new(0),
            wrong: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
            slices: (0..MAX_SLICES).map(|_| AtomicU64::new(0)).collect(),
        });
        *CURRENT.lock().unwrap() = Some(s.clone());
        for _ in 0..WINDOW {
            let args = next(&s);
            if rt
                .send_action::<Echo>(Gid::locality_root(LocalityId(1)), args, reply_to())
                .is_err()
            {
                s.send_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        Window(s)
    }

    /// Stop sending, let the requests in flight settle, and account for
    /// them in `o`. Returns the completions per slice and the sequence
    /// number after the last request.
    pub fn stop(self, o: &mut Outcome) -> (Slices, u64) {
        let s = self.0;
        s.stop.store(true, Ordering::Release);
        let deadline = Instant::now() + OP_TIMEOUT;
        let issued = || s.issued.load(Ordering::Relaxed) - s.first;
        // Acquire: pairs with the Release increment in `on_reply`.
        while s.settled.load(Ordering::Acquire) + s.send_errors.load(Ordering::Relaxed) < issued()
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        *CURRENT.lock().unwrap() = None;
        let next = s.issued.load(Ordering::Relaxed);
        let issued = issued();
        let settled = s.settled.load(Ordering::Acquire);
        let wrong = s.wrong.load(Ordering::Relaxed);
        o.attempted += issued;
        o.failed += issued - settled.min(issued);
        for _ in 0..wrong {
            o.check(false, || {
                format!("window phase {}: wrong echo value", s.phase)
            });
        }
        let counts = s.slices.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        (Slices::from_counts(s.start, counts), next)
    }
}

/// An echo of a window phase came back to rank 0: check and count it,
/// then keep the loop going unless it is stopping.
pub fn on_reply(ctx: &mut Ctx<'_>, id: u64, y: u64) {
    let now = Instant::now();
    let Some(s) = CURRENT.lock().unwrap().clone() else {
        return;
    };
    if id >> PHASE_SHIFT != s.phase {
        return;
    }
    // Relaxed: counters read after `settled` is seen (Acquire).
    if y == echo_of(id, echo_input(s.seed, id)) {
        let i = (now.saturating_duration_since(s.start).as_nanos() / SLICE.as_nanos()) as usize;
        if let Some(c) = s.slices.get(i) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    } else {
        s.wrong.fetch_add(1, Ordering::Relaxed);
    }
    if !s.stop.load(Ordering::Acquire) {
        let args = next(&s);
        if ctx
            .send::<Echo>(Gid::locality_root(LocalityId(1)), args, reply_to())
            .is_err()
        {
            s.send_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    s.settled.fetch_add(1, Ordering::Release);
}
