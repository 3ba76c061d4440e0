use super::*;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use net::UdpSocket;
use sync::mpsc::unbounded_channel;
use task::{spawn, yield_now};

#[test]
fn block_on_returns_the_value() {
    let rt = runtime::Runtime::new().unwrap();
    assert_eq!(rt.block_on(async { 40 + 2 }), 42);
}

#[test]
fn spawned_tasks_run_and_join() {
    let rt = runtime::Runtime::new().unwrap();
    let got = rt.block_on(async {
        let h = task::spawn(async {
            task::yield_now().await;
            7
        });
        h.await.unwrap()
    });
    assert_eq!(got, 7);
}

#[test]
fn sleep_waits_and_timeout_fires() {
    let rt = runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let t0 = std::time::Instant::now();
        time::sleep(Duration::from_millis(20)).await;
        assert!(t0.elapsed() >= Duration::from_millis(20));
        let r = time::timeout(Duration::from_millis(10), std::future::pending::<()>()).await;
        assert!(r.is_err(), "pending future must time out");
    });
}

#[test]
fn udp_round_trip_on_loopback() {
    let rt = runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let a = net::UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let b = net::UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let b_addr = b.local_addr().unwrap();
        a.send_to(b"ping", b_addr).await.unwrap();
        let mut buf = [0u8; 16];
        let (n, from) = time::timeout(Duration::from_secs(2), b.recv_from(&mut buf))
            .await
            .expect("datagram must arrive")
            .unwrap();
        assert_eq!(&buf[..n], b"ping");
        assert_eq!(from, a.local_addr().unwrap());
    });
}

#[test]
fn mpsc_crosses_tasks() {
    let rt = runtime::Runtime::new().unwrap();
    let got = rt.block_on(async {
        let (tx, mut rx) = sync::mpsc::unbounded_channel();
        task::spawn(async move {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        let a = rx.recv().await.unwrap();
        let b = rx.recv().await.unwrap();
        assert_eq!(rx.recv().await, None, "closed after sender drop");
        a + b
    });
    assert_eq!(got, 3);
}

// ---- The executor's contract. No test below reads a clock to decide
// ---- whether it passed.

/// Counts the polls of the future it wraps.
struct Counted<F> {
    fut: Pin<Box<F>>,
    polls: Rc<Cell<usize>>,
}

fn counted<F: Future>(fut: F) -> (Counted<F>, Rc<Cell<usize>>) {
    let polls = Rc::new(Cell::new(0));
    (Counted { fut: Box::pin(fut), polls: polls.clone() }, polls)
}

impl<F: Future> Future for Counted<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.polls.set(self.polls.get() + 1);
        self.fut.as_mut().poll(cx)
    }
}

/// `/proc/sys/net/core/rmem_default`: the bytes (payload plus kernel
/// bookkeeping) a fresh UDP socket queues before it drops.
fn socket_buffer_bytes() -> usize {
    let text = std::fs::read_to_string("/proc/sys/net/core/rmem_default").unwrap();
    text.trim().parse().unwrap()
}

/// Lets every other task have `rounds` more turns.
async fn rounds(rounds: usize) {
    for _ in 0..rounds {
        yield_now().await;
    }
}

#[test]
fn a_pending_task_is_polled_once_until_its_event() {
    let rt = runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let (tx, mut rx) = unbounded_channel::<u8>();
        let sock = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let addr = sock.local_addr().unwrap();

        let (on_channel, channel_polls) = counted(async move { rx.recv().await });
        let (on_socket, socket_polls) = counted(async move {
            let mut buf = [0u8; 8];
            sock.recv_from(&mut buf).await.unwrap().0
        });
        let on_channel = spawn(on_channel);
        let on_socket = spawn(on_socket);
        let (on_join, join_polls) = counted(async move { on_channel.await.unwrap() });
        let on_join = spawn(on_join);
        let polls = || [channel_polls.get(), socket_polls.get(), join_polls.get()];

        // Main stays runnable throughout, so the executor never parks
        // long enough to reach the cap and re-poll everything.
        rounds(50).await;
        assert_eq!(polls(), [1, 1, 1], "no event yet: one poll each, to register");

        tx.send(7).unwrap();
        sock_send(addr, b"ping").await;
        assert_eq!(on_join.await.unwrap(), Some(7));
        assert_eq!(on_socket.await.unwrap(), 4);
        assert_eq!(polls(), [2, 2, 2], "one more poll each, on the event");
    });
}

async fn sock_send(to: std::net::SocketAddr, bytes: &[u8]) {
    let from = UdpSocket::bind("127.0.0.1:0").await.unwrap();
    from.send_to(bytes, to).await.unwrap();
}

#[test]
fn a_timeout_that_completes_early_disarms_its_timer() {
    let rt = runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let (tx, mut rx) = unbounded_channel();
        spawn(async move {
            assert_eq!(armed_timers(), 1, "the receiver is waiting under its timeout");
            tx.send(1).unwrap();
        });
        let got = time::timeout(Duration::from_millis(50), rx.recv()).await;
        assert_eq!(got, Ok(Some(1)));
        assert_eq!(armed_timers(), 0);
    });
}

#[test]
fn the_park_cap_covers_a_lost_waker_and_a_wake_from_another_thread() {
    let rt = runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut polls = 0;
        std::future::poll_fn(|_cx| {
            polls += 1;
            if polls < 3 {
                Poll::Pending
            } else {
                Poll::Ready(())
            }
        })
        .await;

        let (tx, mut rx) = unbounded_channel();
        let sender = std::thread::spawn(move || tx.send(5).unwrap());
        assert_eq!(rx.recv().await, Some(5));
        sender.join().unwrap();
    });
}

/// Rule (2). The sender never waits: it is runnable in every round
/// until it is done, and an executor that looks at the sockets only when
/// idle lets the reader's buffer overflow.
#[test]
fn a_task_that_stays_runnable_does_not_starve_a_reader() {
    const BURST: usize = 128;
    // No datagram takes less than 512 B of the buffer, so this is more
    // than three buffers' worth; a burst (768 B each) fits the default
    // 208 KB buffer with room to spare.
    let total = (3 * socket_buffer_bytes() / 512).next_multiple_of(BURST);
    let rt = runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let rx_sock = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let tx_sock = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let addr = rx_sock.local_addr().unwrap();
        let received = Rc::new(Cell::new(0));
        let count = received.clone();
        spawn(async move {
            let mut buf = [0u8; 64];
            while rx_sock.recv_from(&mut buf).await.is_ok() {
                count.set(count.get() + 1);
            }
        });
        let sender = spawn(async move {
            for _ in 0..total / BURST {
                for _ in 0..BURST {
                    tx_sock.send_to(&[0u8; 64], addr).await.unwrap();
                }
                yield_now().await;
            }
        });
        sender.await.unwrap();
        rounds(2).await;
        assert_eq!(received.get(), total);
    });
}

/// Rule (1), the decision itself: a socket and a timer are both ready
/// at the same look, and the socket's task runs first although it was
/// spawned second.
#[test]
fn a_readable_socket_is_served_before_a_due_timer() {
    let rt = runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let sock = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let addr = sock.local_addr().unwrap();
        let deadline = Instant::now() + Duration::from_millis(2);
        let order = Rc::new(RefCell::new(Vec::new()));

        let log = order.clone();
        let sleeper = spawn(async move {
            time::sleep_until(deadline).await;
            log.borrow_mut().push("sleeper");
        });
        let log = order.clone();
        let reader = spawn(async move {
            let mut buf = [0u8; 8];
            sock.recv_from(&mut buf).await.unwrap();
            log.borrow_mut().push("reader");
        });

        // Once both have registered (spawned tasks start a round late),
        // make both events true before the executor looks again, by
        // holding its only thread.
        rounds(2).await;
        assert_eq!(armed_timers(), 1);
        sock_send(addr, b"ping").await;
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        sleeper.await.unwrap();
        reader.await.unwrap();
        assert_eq!(*order.borrow(), ["reader", "sleeper"]);
    });
}

/// Rule (1), what it buys: a timer-driven generator overruns hop A's
/// socket buffer with every burst, A relays what it got to B, and B
/// loses nothing — the burst ahead drained before the timer fed the
/// next one in. Spawn order is not what does it.
#[test]
fn a_relay_fed_by_a_timer_drops_only_at_its_first_hop() {
    const PAYLOAD: usize = 1024;
    const BURSTS: usize = 8;
    type Stage = Pin<Box<dyn Future<Output = ()>>>;
    let burst = 3 * socket_buffer_bytes() / PAYLOAD;
    let rt = runtime::Runtime::new().unwrap();

    // Path order is 0 = generator, 1 = A, 2 = B.
    for spawn_order in [[2, 1, 0], [0, 1, 2], [1, 2, 0], [1, 0, 2]] {
        let (sent, a_rx, b_rx) = rt.block_on(async {
            let a_sock = UdpSocket::bind("127.0.0.1:0").await.unwrap();
            let b_sock = UdpSocket::bind("127.0.0.1:0").await.unwrap();
            let gen_sock = UdpSocket::bind("127.0.0.1:0").await.unwrap();
            let (a_addr, b_addr) = (a_sock.local_addr().unwrap(), b_sock.local_addr().unwrap());
            let a_rx = Rc::new(Cell::new(0));
            let b_rx = Rc::new(Cell::new(0));

            let generator: Stage = Box::pin(async move {
                for _ in 0..BURSTS {
                    time::sleep(Duration::from_micros(50)).await;
                    for _ in 0..burst {
                        gen_sock.send_to(&[0u8; PAYLOAD], a_addr).await.unwrap();
                    }
                }
            });
            let count = a_rx.clone();
            let a: Stage = Box::pin(async move {
                let mut buf = [0u8; PAYLOAD];
                while let Ok((len, _)) = a_sock.recv_from(&mut buf).await {
                    count.set(count.get() + 1);
                    a_sock.send_to(&buf[..len], b_addr).await.unwrap();
                }
            });
            let count = b_rx.clone();
            let b: Stage = Box::pin(async move {
                let mut buf = [0u8; PAYLOAD];
                while b_sock.recv_from(&mut buf).await.is_ok() {
                    count.set(count.get() + 1);
                }
            });

            let mut stages = [Some(generator), Some(a), Some(b)];
            let mut handles: Vec<_> =
                spawn_order.iter().map(|&i| Some(spawn(stages[i].take().unwrap()))).collect();
            let generator_at = spawn_order.iter().position(|&i| i == 0).unwrap();
            handles[generator_at].take().unwrap().await.unwrap();
            // The last burst is two hops from B.
            rounds(4).await;
            (BURSTS * burst, a_rx.get(), b_rx.get())
        });
        assert!(a_rx < sent, "{spawn_order:?}: the bursts must overrun A ({a_rx} of {sent})");
        assert_eq!(b_rx, a_rx, "{spawn_order:?}: B must see everything A relayed");
    }
}
