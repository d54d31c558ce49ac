//go:build linux

package nettransport

import (
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
)

// epollLoop is the Linux readiness driver: ONE goroutine multiplexing
// every peer connection with level-triggered epoll and non-blocking
// reads. Go sockets are already O_NONBLOCK at the OS level (the runtime
// netpoller supplies the Go-visible blocking semantics), so a dup of the
// connection — sharing the same file description and therefore the same
// O_NONBLOCK flag — can be read with raw syscalls while the original
// conn keeps its Go-blocking Write for the send scheduler.
//
// Fairness: each readable connection is pumped with a bounded read
// budget per wake-up, so one peer firehosing eager traffic cannot starve
// frames (CTS grants, death-relevant EOFs) from the others; level
// triggering re-arms anything left unread.
type epollLoop struct {
	c      *Comm
	epfd   int
	rpipe  int // wake pipe read end (in the epoll set)
	wpipe  int
	byFd   map[int]*connState
	stopfl atomic.Bool
	done   chan struct{}
}

// readBudget bounds how many reads one connection gets per readiness
// event before the loop moves on to the next peer.
const readBudget = 16

// startIO dups every peer socket for raw reads and launches the loop.
func startIO(c *Comm) (ioLoop, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("nettransport: epoll_create1: %w", err)
	}
	var pfd [2]int
	if err := syscall.Pipe2(pfd[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("nettransport: pipe2: %w", err)
	}
	l := &epollLoop{c: c, epfd: epfd, rpipe: pfd[0], wpipe: pfd[1],
		byFd: make(map[int]*connState), done: make(chan struct{})}
	add := func(fd int) error {
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(fd)}
		return syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
	}
	fail := func(err error) (ioLoop, error) {
		l.closeFds()
		return nil, err
	}
	if err := add(l.rpipe); err != nil {
		return fail(fmt.Errorf("nettransport: epoll_ctl wake pipe: %w", err))
	}
	for _, cs := range c.conns {
		if cs == nil {
			continue
		}
		fd, file, err := dupConnFd(cs.conn)
		if err != nil {
			return fail(err)
		}
		cs.fd, cs.file = fd, file
		if err := add(fd); err != nil {
			return fail(fmt.Errorf("nettransport: epoll_ctl conn: %w", err))
		}
		l.byFd[fd] = cs
	}
	go l.run()
	return l, nil
}

// dupConnFd duplicates the connection's descriptor for raw reads. The
// returned closer is the *os.File keeping the dup alive — it must stay
// referenced (a finalizer would otherwise close the fd under us) and be
// closed together with the conn at teardown. The fd is extracted via
// SyscallConn, NOT File.Fd(): Fd() flips the descriptor to blocking
// mode, and O_NONBLOCK lives on the file description shared with the
// original socket.
func dupConnFd(conn net.Conn) (int, interface{ Close() error }, error) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return -1, nil, fmt.Errorf("nettransport: cannot dup %T for readiness I/O", conn)
	}
	f, err := tc.File()
	if err != nil {
		return -1, nil, fmt.Errorf("nettransport: dup conn: %w", err)
	}
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return -1, nil, fmt.Errorf("nettransport: raw conn: %w", err)
	}
	fd := -1
	if err := rc.Control(func(rawfd uintptr) { fd = int(rawfd) }); err != nil {
		f.Close()
		return -1, nil, fmt.Errorf("nettransport: raw fd: %w", err)
	}
	return fd, f, nil
}

// run is the readiness loop.
func (l *epollLoop) run() {
	defer close(l.done)
	events := make([]syscall.EpollEvent, 64)
	for {
		n, err := syscall.EpollWait(l.epfd, events, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			l.closeFds()
			return
		}
		for i := 0; i < n; i++ {
			fd := int(events[i].Fd)
			if fd == l.rpipe {
				if l.stopfl.Load() {
					l.closeFds()
					return
				}
				var scratch [16]byte
				syscall.Read(l.rpipe, scratch[:])
				continue
			}
			cs := l.byFd[fd]
			if cs == nil || cs.dead {
				continue
			}
			l.pump(cs)
		}
	}
}

// pump services one readable connection: up to readBudget non-blocking
// reads, each either landing directly in an armed payload buffer or in
// the staging buffer (then parsed).
func (l *epollLoop) pump(cs *connState) {
	c := l.c
	for budget := 0; budget < readBudget; budget++ {
		var dst []byte
		direct := cs.wantDirect()
		switch {
		case direct:
			dst = cs.directDst()
		case cs.draining:
			dst = cs.buf
		default:
			cs.compact()
			dst = cs.buf[cs.w:]
		}
		n, err := syscall.Read(cs.fd, dst)
		if err == syscall.EAGAIN {
			return
		}
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			l.drop(cs, err)
			return
		}
		if n == 0 { // EOF
			if cs.draining {
				l.deregister(cs) // clean Bye shutdown
				return
			}
			l.drop(cs, cs.eofError())
			return
		}
		var perr error
		switch {
		case direct:
			perr = c.advanceDirect(cs, n)
		case cs.draining:
			// discard
		default:
			cs.w += n
			perr = c.drainStaged(cs)
		}
		if perr != nil {
			l.drop(cs, perr)
			return
		}
	}
}

// drop deregisters a broken connection and hands the cause to the
// failure detector (unless local teardown explains it).
func (l *epollLoop) drop(cs *connState, err error) {
	l.deregister(cs)
	l.c.ioError(cs, err)
}

// deregister removes the connection from the epoll set and releases
// decoder resources. The fd itself stays open — teardown owns closing.
func (l *epollLoop) deregister(cs *connState) {
	syscall.EpollCtl(l.epfd, syscall.EPOLL_CTL_DEL, cs.fd, nil)
	l.c.abort(cs)
}

// stop terminates the loop via the wake pipe and waits for it to exit;
// the loop closes the epoll and pipe descriptors on its way out.
func (l *epollLoop) stop() {
	if l.stopfl.Swap(true) {
		<-l.done
		return
	}
	var one = [1]byte{1}
	syscall.Write(l.wpipe, one[:])
	<-l.done
}

// closeFds releases the loop's own descriptors (not the conn dups).
func (l *epollLoop) closeFds() {
	syscall.Close(l.epfd)
	syscall.Close(l.rpipe)
	syscall.Close(l.wpipe)
}
