//! Discrete-event simulation engine for the `tcpburst` workspace.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-nanosecond virtual clock with
//!   exact arithmetic (no floating-point drift in the event queue),
//! * [`EventQueue`] — a priority queue of timestamped events with a
//!   deterministic FIFO tie-break for simultaneous events; a calendar queue
//!   (O(1) amortized, supports in-place cancellation via [`EventKey`]),
//! * [`Scheduler`] — the virtual clock plus the queue, i.e. the core
//!   simulation loop driver,
//! * [`TimerSlot`] — a cancellable/re-armable logical timer: eager in-place
//!   deletion of superseded firings, with generation-counter filtering at
//!   delivery for firings already in flight,
//! * [`PhaseCycle`] — a repeating schedule of hold times (e.g. link
//!   up/down flapping) driven by self-rescheduling events,
//! * [`SimRng`] — a seeded, reproducible random-number source (an in-tree
//!   xoshiro256++, no external dependencies) with the distributions the
//!   traffic models need (exponential, Pareto, uniform) and documented
//!   per-entity stream splitting.
//!
//! # Example
//!
//! ```
//! use tcpburst_des::{Scheduler, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Event { Ping, Pong }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_after(SimDuration::from_millis(5), Event::Ping);
//! sched.schedule_after(SimDuration::from_millis(2), Event::Pong);
//!
//! let (t1, e1) = sched.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::from_millis(2), Event::Pong));
//! let (t2, e2) = sched.pop().unwrap();
//! assert_eq!((t2, e2), (SimTime::from_millis(5), Event::Ping));
//! assert!(sched.pop().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;

mod queue;
mod rng;
mod scheduler;
mod time;
mod timer;

pub use queue::{EventKey, EventQueue};
pub use rng::SimRng;
pub use scheduler::Scheduler;
pub use time::{SimDuration, SimTime};
pub use timer::{PhaseCycle, TimerGeneration, TimerSlot};
