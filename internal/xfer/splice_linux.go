package xfer

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
)

// pipe is a kernel pipe with the callbacks that splice through it, made
// together and pooled together, so a round allocates nothing.
type pipe struct {
	*pipeEnds
	max, held int // bytes one round takes in; bytes in the pipe
	src, dst  syscall.RawConn
	in, out   func(fd uintptr) bool
	n         int   // the last splice's count
	err       error // and its error
}

// pipeEnds carries the finalizer that closes a pipe the sync.Pool drops:
// a pipe is referenced by its own callbacks, and the finalizer of an
// object in a cycle never runs.
type pipeEnds struct{ r, w int }

func (e *pipeEnds) close() {
	runtime.SetFinalizer(e, nil)
	syscall.Close(e.r)
	syscall.Close(e.w)
}

// pipeSize asks the kernel to grow a pipe to size and returns the
// capacity it has (F_GETPIPE_SZ). Past fs.pipe-user-pages-soft the kernel
// refuses and the pipe keeps two pages; tests stand in for that here.
var pipeSize = func(fd, size int) int {
	syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_SETPIPE_SZ, uintptr(size))
	n, _, _ := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_GETPIPE_SZ, 0)
	return int(n) // -1 on an error
}

// droppedPipes counts pipes closed, not pooled, because they held data.
var droppedPipes atomic.Uint64

// getPipe takes a pooled pipe or makes one of at least the pool's size;
// nil when the kernel will not give one that large.
func (p *Pool) getPipe() *pipe {
	if pp, ok := p.pipes.Get().(*pipe); ok {
		return pp
	}
	var fds [2]int
	if syscall.Pipe2(fds[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK) != nil {
		return nil
	}
	pp := &pipe{pipeEnds: &pipeEnds{fds[0], fds[1]}, max: p.size}
	if pipeSize(pp.w, p.size) < p.size {
		pp.close()
		return nil
	}
	pp.in = func(fd uintptr) bool { return pp.splice(int(fd), pp.w, pp.max) }
	pp.out = func(fd uintptr) bool { return pp.splice(pp.r, int(fd), pp.held) }
	runtime.SetFinalizer(pp.pipeEnds, (*pipeEnds).close)
	return pp
}

// putPipe pools an empty pipe and closes one that still holds data.
func (p *Pool) putPipe(pp *pipe) {
	pp.src, pp.dst = nil, nil
	if pp.held > 0 {
		droppedPipes.Add(1)
		pp.close()
		return
	}
	p.pipes.Put(pp)
}

// splice moves up to max bytes from rfd to wfd without blocking on the
// pipe; false, on EAGAIN, asks the poller to wait for the socket.
func (p *pipe) splice(rfd, wfd, max int) bool {
	for {
		n, err := syscall.Splice(rfd, nil, wfd, nil, max, 0x1|0x2) // SPLICE_F_MOVE|SPLICE_F_NONBLOCK
		if err != syscall.EINTR {
			p.n, p.err = int(n), err
			return err != syscall.EAGAIN
		}
	}
}

// round splices what src has, up to max bytes, into the empty pipe and
// pumps it into dst. It returns the bytes written, and io.EOF once src is
// finished.
func (p *pipe) round() (out int, err error) {
	if err := p.src.Read(p.in); err != nil {
		return 0, err
	}
	if p.err != nil {
		return 0, os.NewSyscallError("splice", p.err)
	}
	if p.n == 0 {
		return 0, io.EOF
	}
	for p.held = p.n; p.held > 0; p.held -= p.n {
		if err := p.dst.Write(p.out); err != nil {
			return out, err
		}
		if p.err != nil {
			return out, os.NewSyscallError("splice", p.err)
		}
		out += p.n
	}
	return out, nil
}

// copySplice is CopyCounted between two TCP connections. It declines,
// having moved nothing, for any other pair, when no pipe of the pool's
// size is to be had, and when the kernel cannot splice from src (EINVAL).
func copySplice(dst io.Writer, src io.Reader, pool *Pool, cfg *CopyConfig) (int64, bool, error) {
	d, ok := dst.(*net.TCPConn)
	s, ok2 := src.(*net.TCPConn)
	if !ok || !ok2 {
		return 0, false, nil
	}
	rs, err := s.SyscallConn()
	rd, err2 := d.SyscallConn()
	if err != nil || err2 != nil {
		return 0, false, nil
	}
	pp := pool.getPipe()
	if pp == nil {
		return 0, false, nil
	}
	defer pool.putPipe(pp)
	pp.src, pp.dst = rs, rd
	var moved int64
	for {
		n, err := pp.round()
		if n > 0 {
			if cfg.HighWater != nil {
				cfg.HighWater.SetMax(int64(n))
			}
			moved += int64(n)
			cfg.credit(n)
		}
		switch {
		case err == io.EOF:
			return moved, true, nil
		case moved == 0 && pp.held == 0 && errors.Is(err, syscall.EINVAL):
			return 0, false, nil
		case err != nil:
			return moved, true, err
		}
	}
}
