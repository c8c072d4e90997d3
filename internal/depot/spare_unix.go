//go:build unix

package depot

import (
	"errors"
	"net"
	"syscall"
)

// peerSilent reports whether a non-blocking MSG_PEEK finds nothing to
// read: EOF, an error or a byte means the peer closed, reset or spoke.
func peerSilent(nc net.Conn) bool {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return true // no socket to peek at: take it as it is
	}
	rc, err := sc.SyscallConn()
	var peekErr error
	if err == nil {
		err = rc.Read(func(fd uintptr) bool {
			_, _, peekErr = syscall.Recvfrom(int(fd), make([]byte, 1), syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			return true
		})
	}
	return err == nil && errors.Is(peekErr, syscall.EAGAIN)
}
