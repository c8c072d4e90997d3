// Package sockopt applies the paper's §V socket tuning to LSL transport
// connections: TCP_NODELAY on every sublink (session opens are
// latency-bound small writes; Nagle only adds delayed-ACK stalls), and an
// optional SO_SNDBUF/SO_RCVBUF override, which is what the paper
// hand-tuned per hop to claw back throughput on high
// bandwidth-delay-product paths. One size serves both directions: a
// sublink's bandwidth-delay product is the same either way.
//
// Tune is safe on any net.Conn: non-TCP transports (test pipes, the WAN
// emulator, mux streams) are left untouched.
package sockopt

import "net"

// Tune applies TCP-level socket options to c when it is a *net.TCPConn:
// TCP_NODELAY always, and send and receive buffers of buf bytes when buf
// is positive. Errors are ignored — tuning is advisory; the kernel may
// clamp or refuse sizes — and non-TCP conns are a no-op.
func Tune(c net.Conn, buf int) {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return
	}
	tc.SetNoDelay(true)
	if buf > 0 {
		tc.SetWriteBuffer(buf)
		tc.SetReadBuffer(buf)
	}
}
