//! # reach-interleave
//!
//! A vendored, dependency-free **bounded interleaving checker** — a
//! miniature [loom](https://github.com/tokio-rs/loom) in the same
//! spirit as the workspace's `rand` shim.  It
//! exhaustively enumerates every thread schedule of a small,
//! explicitly-modeled concurrent protocol and checks a safety
//! invariant in every reachable state plus an acceptance condition in
//! every quiescent (no-thread-can-step) state.
//!
//! The workspace uses it to model-check the one hand-rolled
//! concurrency protocol that `cargo test` can only probe
//! stochastically: [`queue`], the server's bounded accept queue +
//! condvar worker pool + shutdown-drain handshake (no lost wakeup,
//! drain completeness, every thread terminates).
//!
//! ## Exploration bound
//!
//! State spaces are bounded by construction: models fix the thread
//! count (2–3), the iteration count per thread, and the queue
//! capacities, so program counters and shared state are finite
//! enumerations.  [`explore`] performs a depth-first search over the
//! *entire* transition graph with visited-state memoization, i.e. it
//! covers every interleaving of the bounded model, not a sampled
//! subset.  A deadlock (some thread not done, nothing can step) shows
//! up as a quiescent state that fails [`Model::accept`] — which is
//! exactly how a lost condvar wakeup manifests.

#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::fmt;
use std::hash::Hash;

pub mod queue;

/// A finite concurrent protocol: shared state plus `threads()`
/// deterministic state machines.
pub trait Model {
    /// Global state (shared variables + every thread's program
    /// counter).  Must be hashable so the checker can memoize
    /// visited states.
    type State: Clone + Eq + Hash + fmt::Debug;

    /// The initial global state.
    fn initial(&self) -> Self::State;

    /// Number of threads; thread ids are `0..threads()`.
    fn threads(&self) -> usize;

    /// Execute one atomic step of thread `tid`, or `None` if the
    /// thread is blocked (waiting on a mutex/condvar) or finished.
    /// Each step must be one plausible hardware-atomic action — the
    /// grain of the model decides which races the checker can see.
    fn step(&self, state: &Self::State, tid: usize) -> Option<Self::State>;

    /// Safety invariant, checked in **every** reachable state.
    fn invariant(&self, state: &Self::State) -> Result<(), String>;

    /// Acceptance condition for quiescent states (no thread can
    /// step).  A quiescent state that fails this is either a genuine
    /// protocol-violation terminal state or a deadlock.
    fn accept(&self, state: &Self::State) -> Result<(), String>;
}

/// Statistics from a successful exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct reachable states visited.
    pub states: usize,
    /// Transitions executed (edges of the interleaving graph).
    pub transitions: usize,
    /// Longest schedule followed before hitting quiescence or a
    /// previously-visited state.
    pub deepest_schedule: usize,
}

/// A schedule that drives the model into a bad state.
#[derive(Debug, Clone)]
pub struct CounterExample<S> {
    /// Thread ids in execution order, from the initial state.
    pub schedule: Vec<usize>,
    /// The offending state.
    pub state: S,
    /// Why it is bad (invariant or acceptance message).
    pub message: String,
}

impl<S: fmt::Debug> fmt::Display for CounterExample<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample after schedule {:?}:", self.schedule)?;
        writeln!(f, "  {}", self.message)?;
        write!(f, "  state: {:?}", self.state)
    }
}

/// Why exploration stopped without a clean pass.
#[derive(Debug)]
pub enum CheckError<S> {
    /// A reachable state violated the invariant, or a quiescent
    /// state failed acceptance.
    Violation(Box<CounterExample<S>>),
    /// The model exceeded the state budget — it is not bounded
    /// tightly enough to be exhaustively checked.
    StateLimit(usize),
}

impl<S: fmt::Debug> fmt::Display for CheckError<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Violation(cex) => write!(f, "{cex}"),
            CheckError::StateLimit(n) => {
                write!(f, "state budget exhausted after {n} distinct states")
            }
        }
    }
}

/// Default state budget for [`explore`]; far above what the shipped
/// models need (they stay under ~10^5 states) but low enough that a
/// mis-bounded model fails fast instead of consuming the machine.
pub const DEFAULT_STATE_LIMIT: usize = 2_000_000;

/// Exhaustively explore every bounded schedule of `model` with the
/// [`DEFAULT_STATE_LIMIT`] budget.
pub fn explore<M: Model>(model: &M) -> Result<Exploration, CheckError<M::State>> {
    explore_with_limit(model, DEFAULT_STATE_LIMIT)
}

/// [`explore`] with an explicit distinct-state budget.
pub fn explore_with_limit<M: Model>(
    model: &M,
    state_limit: usize,
) -> Result<Exploration, CheckError<M::State>> {
    let mut visited: HashSet<M::State> = HashSet::new();
    let mut stats = Exploration {
        states: 0,
        transitions: 0,
        deepest_schedule: 0,
    };
    // Each frame is (state, next thread id to try). `schedule` holds
    // the thread ids on the current DFS path; frame i's incoming edge
    // is schedule[i-1] (the root frame has none).
    let mut stack: Vec<(M::State, usize)> = Vec::new();
    let mut schedule: Vec<usize> = Vec::new();

    let init = model.initial();
    if enter(
        model,
        init,
        &mut visited,
        &mut stats,
        &schedule,
        state_limit,
    )? {
        stack.push((model.initial(), 0));
    }

    while let Some((state, next_tid)) = stack.last() {
        let mut chosen = None;
        for tid in *next_tid..model.threads() {
            if let Some(succ) = model.step(state, tid) {
                chosen = Some((tid, succ));
                break;
            }
        }
        match chosen {
            None => {
                stack.pop();
                schedule.pop();
            }
            Some((tid, succ)) => {
                stack.last_mut().expect("frame just inspected").1 = tid + 1;
                stats.transitions += 1;
                schedule.push(tid);
                stats.deepest_schedule = stats.deepest_schedule.max(schedule.len());
                if enter(
                    model,
                    succ.clone(),
                    &mut visited,
                    &mut stats,
                    &schedule,
                    state_limit,
                )? {
                    stack.push((succ, 0));
                } else {
                    schedule.pop();
                }
            }
        }
    }
    Ok(stats)
}

/// Register a newly-reached state: memoize it, check the invariant,
/// and classify quiescence.  Returns `Ok(true)` when the state is
/// fresh and has at least one enabled thread (i.e. the DFS should
/// descend into it).
fn enter<M: Model>(
    model: &M,
    state: M::State,
    visited: &mut HashSet<M::State>,
    stats: &mut Exploration,
    schedule: &[usize],
    state_limit: usize,
) -> Result<bool, CheckError<M::State>> {
    if !visited.insert(state.clone()) {
        return Ok(false);
    }
    stats.states += 1;
    if stats.states > state_limit {
        return Err(CheckError::StateLimit(stats.states));
    }
    if let Err(message) = model.invariant(&state) {
        return Err(CheckError::Violation(Box::new(CounterExample {
            schedule: schedule.to_vec(),
            state,
            message,
        })));
    }
    let enabled = (0..model.threads()).any(|tid| model.step(&state, tid).is_some());
    if !enabled {
        if let Err(message) = model.accept(&state) {
            return Err(CheckError::Violation(Box::new(CounterExample {
                schedule: schedule.to_vec(),
                state,
                message: format!("quiescent state rejected: {message}"),
            })));
        }
        return Ok(false);
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a shared counter `rounds` times;
    /// the increment is a single atomic step, so the final count is
    /// always exact.
    struct Counter {
        rounds: u8,
    }

    impl Model for Counter {
        type State = (u8, [u8; 2]);

        fn initial(&self) -> Self::State {
            (0, [0, 0])
        }

        fn threads(&self) -> usize {
            2
        }

        fn step(&self, state: &Self::State, tid: usize) -> Option<Self::State> {
            let (count, done) = *state;
            if done[tid] == self.rounds {
                return None;
            }
            let mut next_done = done;
            next_done[tid] += 1;
            Some((count + 1, next_done))
        }

        fn invariant(&self, state: &Self::State) -> Result<(), String> {
            let (count, done) = *state;
            if count == done[0] + done[1] {
                Ok(())
            } else {
                Err(format!("count {count} != steps {done:?}"))
            }
        }

        fn accept(&self, state: &Self::State) -> Result<(), String> {
            if state.0 == 2 * self.rounds {
                Ok(())
            } else {
                Err(format!("final count {} != {}", state.0, 2 * self.rounds))
            }
        }
    }

    #[test]
    fn counter_model_explores_all_interleavings() {
        let stats = explore(&Counter { rounds: 3 }).expect("atomic counter is correct");
        // States form the (rounds+1)^2 grid of per-thread progress.
        assert_eq!(stats.states, 16);
        assert_eq!(stats.deepest_schedule, 6);
        assert!(stats.transitions >= stats.states - 1);
    }

    /// A deliberately broken acceptance condition must surface a
    /// schedule, proving quiescent states are checked.
    struct NeverDone;

    impl Model for NeverDone {
        type State = u8;

        fn initial(&self) -> Self::State {
            0
        }

        fn threads(&self) -> usize {
            1
        }

        fn step(&self, state: &Self::State, _tid: usize) -> Option<Self::State> {
            (*state < 2).then_some(state + 1)
        }

        fn invariant(&self, _state: &Self::State) -> Result<(), String> {
            Ok(())
        }

        fn accept(&self, _state: &Self::State) -> Result<(), String> {
            Err("refused".into())
        }
    }

    #[test]
    fn quiescent_rejection_reports_the_schedule() {
        match explore(&NeverDone) {
            Err(CheckError::Violation(cex)) => {
                assert_eq!(cex.schedule, vec![0, 0]);
                assert!(cex.message.contains("quiescent"));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn state_limit_aborts_unbounded_models() {
        struct Unbounded;
        impl Model for Unbounded {
            type State = u64;
            fn initial(&self) -> u64 {
                0
            }
            fn threads(&self) -> usize {
                1
            }
            fn step(&self, state: &u64, _tid: usize) -> Option<u64> {
                Some(state + 1)
            }
            fn invariant(&self, _state: &u64) -> Result<(), String> {
                Ok(())
            }
            fn accept(&self, _state: &u64) -> Result<(), String> {
                Ok(())
            }
        }
        match explore_with_limit(&Unbounded, 100) {
            Err(CheckError::StateLimit(n)) => assert!(n > 100),
            other => panic!("expected state-limit abort, got {other:?}"),
        }
    }
}
