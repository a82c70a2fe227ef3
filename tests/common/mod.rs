//! Support shared by the root integration tests.

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// Runs `f` on a thread of its own and returns what it returned, or panics
/// naming `name` once `f` has run for `limit`: a test that hangs fails by
/// name instead of stalling the suite. A panic in `f` goes on in the caller.
pub fn bounded<T: Send + 'static>(
    name: &str,
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let _ = done_tx.send(f());
        });
    let worker = spawned.expect("spawning a test thread");
    match done_rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("{name} did not finish within {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the worker sends before it ends"),
        },
    }
}
