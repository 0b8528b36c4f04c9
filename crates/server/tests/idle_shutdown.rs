//! An idle daemon parks its accept thread until a connection arrives. A
//! shutdown must still end `run()` promptly from that parked state, both
//! through [`ServerHandle::shutdown`] and through the signal flag.
//!
//! Lives in its own integration-test binary because it drives the
//! process-global signal flag (`signal::request`), which must not race the
//! in-process servers of the other test files.

use ftrepair_server::{signal, Server, ServerConfig, ServerHandle};
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The two tests share the signal flag, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// How long a parked server may take to return from `run()`.
const BOUND: Duration = Duration::from_secs(1);

/// Start an idle server, let its accept thread park, call `stop`, and
/// return how long `run()` took to come back after it.
fn time_to_stop(stop: impl FnOnce(&ServerHandle)) -> Duration {
    let config = ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 1, ..Default::default() };
    let server = Server::bind(&config).expect("bind 127.0.0.1:0");
    let handle = server.handle();
    let (done, returned) = mpsc::channel();
    std::thread::spawn(move || {
        let result = server.run();
        let _ = done.send((Instant::now(), result));
    });
    // No traffic: by now the accept thread is waiting for a connection.
    std::thread::sleep(Duration::from_millis(300));
    let stopped = Instant::now();
    stop(&handle);
    let (at, result) = returned.recv_timeout(BOUND).expect("run() must return within the bound");
    result.expect("run() returns Ok after an idle drain");
    at.duration_since(stopped)
}

#[test]
fn parked_server_returns_promptly_after_handle_shutdown() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    signal::reset();
    let took = time_to_stop(ServerHandle::shutdown);
    assert!(took < BOUND, "shutdown took {took:?}");
}

#[test]
fn parked_server_returns_promptly_after_signal() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    signal::reset();
    let took = time_to_stop(|_| signal::request());
    signal::reset();
    assert!(took < BOUND, "signal shutdown took {took:?}");
}
