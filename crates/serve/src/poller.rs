//! Readiness polling over raw file descriptors with zero dependencies.
//!
//! This is Linux epoll (level-triggered) plus an `eventfd` waker, reached
//! through direct `extern "C"` declarations — the same pattern the serve
//! binary uses for `signal(2)` — so the crate stays free of external
//! crates. Linux is the only supported target: `scpg-trace` refuses to
//! compile elsewhere.
//!
//! The API is the minimal slice the event loop needs: register a fd
//! with a `u64` token and read/write interest, modify interest, delete,
//! and wait with an optional timeout. [`Waker`] lets worker threads and
//! the shutdown path interrupt a parked [`Poller::wait`] from outside
//! the loop thread.

use std::time::Duration;

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or error/hangup — the subsequent `read` surfaces it).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// Converts an optional timeout to the millisecond argument epoll
/// takes: `None` → block forever (-1); zero/sub-millisecond → 0 is wrong
/// (it would busy-spin just before a deadline), so round *up*.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis();
            let ms = if ms == 0 && !t.is_zero() { 1 } else { ms };
            ms.min(i32::MAX as u128) as i32
        }
    }
}

mod imp {
    use super::{timeout_ms, Event};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    // x86 ABI quirk: the kernel's epoll_event is packed (64-bit data
    // directly follows the 32-bit mask). Other architectures use the
    // natural layout.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EFD_NONBLOCK: i32 = 0o4000;
    const EFD_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn interest_mask(readable: bool, writable: bool) -> u32 {
        let mut mask = EPOLLRDHUP;
        if readable {
            mask |= EPOLLIN;
        }
        if writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Level-triggered epoll instance.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        pub fn add(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_mask(readable, writable),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
        }

        pub fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_mask(readable, writable),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
        }

        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        /// Waits for readiness, appending into `events` (cleared first).
        /// A timeout or EINTR yields an empty set, not an error.
        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for i in 0..n as usize {
                // Copy out of the (possibly packed) struct before
                // touching fields — no references into packed data.
                let ev = self.buf[i];
                let mask = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: mask & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    /// An eventfd the loop registers like any other fd; writes from any
    /// thread make the loop's `wait` return.
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        pub fn new() -> io::Result<Self> {
            let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
            Ok(Self { fd })
        }

        pub fn fd(&self) -> RawFd {
            self.fd
        }

        /// Wakes the poller. Infallible from the caller's view: the only
        /// failure mode of interest is EAGAIN (counter saturated), which
        /// already means a wake is pending.
        pub fn wake(&self) {
            let one: u64 = 1;
            unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Drains pending wakes so level-triggered polling re-arms.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    // The fd is used only via atomic read/write syscalls.
    unsafe impl Send for Waker {}
    unsafe impl Sync for Waker {}
}

pub use imp::{Poller, Waker};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn waker_interrupts_a_parked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 7, true, false).unwrap();
        let w2 = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w2.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(4), "wake was missed");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        waker.drain();
        // After draining, a short wait times out with no events.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "drained waker still signalled");
        t.join().unwrap();
    }

    #[test]
    fn socket_readability_and_interest_modify() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 42, true, false).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "no data yet");

        client.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        // Drop read interest; the still-unread bytes must stop waking us.
        poller.modify(server.as_raw_fd(), 42, false, false).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "interest modify did not take");

        // A socket with buffer space reports writable immediately.
        poller.modify(server.as_raw_fd(), 42, false, true).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.writable));

        poller.delete(server.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "deleted fd still polled");
    }
}
