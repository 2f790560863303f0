//! Offline stand-in for `crossbeam`, providing the `channel` module the
//! workspace uses. It re-exports `std::sync::mpsc`, whose channel has been
//! crossbeam's own list channel since Rust 1.67, under crossbeam's names.
//!
//! The workspace relies on three properties, pinned by the tests below:
//! a blocked receiver wakes when the last sender drops, the last
//! receiver's drop discards queued messages, and `try_recv` /
//! `recv_timeout` report disconnection.

pub mod channel {
    pub use std::sync::mpsc::{
        Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::{Arc, Barrier};
        use std::time::Duration;

        #[test]
        fn send_and_receive_in_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_is_observed() {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn timeout_expires_on_empty_channel() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
        }

        #[test]
        fn receiver_drop_discards_queued_messages() {
            // A queued message owning a reply sender must be dropped with
            // the last receiver, so the reply receiver sees the disconnect
            // instead of blocking forever.
            let (tx, rx) = unbounded::<Sender<u32>>();
            let (reply_tx, reply_rx) = unbounded::<u32>();
            assert!(tx.send(reply_tx).is_ok());
            drop(rx);
            assert_eq!(reply_rx.recv(), Err(RecvError));
            assert!(tx.send(unbounded::<u32>().0).is_err());
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let handle = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(rx.recv().unwrap());
            }
            handle.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        /// Races a blocking `recv()` on a spawned thread against the drop
        /// of the last sender, `iterations` times, one receiver at a time.
        /// The barrier lines both sides up so the drop lands around the
        /// receiver's "disconnected?" check and its park. A receiver that
        /// misses the wakeup would sleep forever, so the main thread waits
        /// for it on a done-channel with a timeout and fails instead of
        /// hanging.
        fn race_recv_against_last_sender_drop(iterations: u32) {
            let barrier = Arc::new(Barrier::new(2));
            for i in 0..iterations {
                let (tx, rx) = unbounded::<u32>();
                let (done_tx, done_rx) = unbounded::<Result<u32, RecvError>>();
                let receiver_barrier = Arc::clone(&barrier);
                let receiver = std::thread::spawn(move || {
                    receiver_barrier.wait();
                    let _ = done_tx.send(rx.recv());
                });
                barrier.wait();
                drop(tx);
                match done_rx.recv_timeout(Duration::from_secs(1)) {
                    Ok(outcome) => assert_eq!(outcome, Err(RecvError)),
                    Err(_) => panic!(
                        "iteration {i}: a receiver blocked in recv() missed the last sender's drop"
                    ),
                }
                receiver.join().unwrap();
            }
        }

        #[test]
        fn last_sender_drop_wakes_a_blocked_receiver() {
            race_recv_against_last_sender_drop(10_000);
        }

        /// The same race at a size that caught the lost wakeup of the
        /// hand-rolled channel this crate used to implement (it notified
        /// without holding its queue lock) within 50 000–350 000 races in
        /// release; run it with `cargo test --release -p crossbeam --
        /// --ignored`.
        #[test]
        #[ignore]
        fn last_sender_drop_wakes_a_blocked_receiver_stress() {
            race_recv_against_last_sender_drop(500_000);
        }
    }
}
