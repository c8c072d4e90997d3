package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"strings"
	"time"

	"lsl"
)

// Everything the program under test sees is generated here from the seed:
// payload bytes, client start stagger, session identifiers and the
// planning overlay. The same seed gives the same inputs on every run.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// splitmix is the SplitMix64 generator: tiny, fast enough to fill a
// 128 MiB payload in tens of milliseconds, and independent of math/rand's
// stream so a Go upgrade cannot change the generated inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// newRNG derives an independent stream for one named input from the seed.
func newRNG(seed int64, name string) *splitmix {
	h := fnv.New64a()
	h.Write([]byte(name))
	s := splitmix(uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64())
	s.next()
	return &s
}

// genPayload returns size seeded pseudo-random bytes.
func genPayload(seed int64, name string, size int) []byte {
	rng := newRNG(seed, "payload/"+name)
	out := make([]byte, size)
	i := 0
	for ; i+8 <= size; i += 8 {
		binary.LittleEndian.PutUint64(out[i:], rng.next())
	}
	for ; i < size; i++ {
		out[i] = byte(rng.next())
	}
	return out
}

func crc32c(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// genStagger returns each client's start offset within [0, 5ms), so the
// two closed loops do not run in lockstep from the first operation.
func genStagger(seed int64, name string, clients int) []time.Duration {
	rng := newRNG(seed, "stagger/"+name)
	out := make([]time.Duration, clients)
	for i := range out {
		out[i] = time.Duration(rng.intn(5000)) * time.Microsecond
	}
	return out
}

// sessionIDs hands out deterministic session identifiers: seed, stream
// name and a counter, so a run's sessions can be matched between the
// initiator and the target and are the same for the same seed.
type sessionIDs struct {
	rng *splitmix
}

func newSessionIDs(seed int64, name string) *sessionIDs {
	return &sessionIDs{rng: newRNG(seed, "session/"+name)}
}

func (s *sessionIDs) next() lsl.SessionID {
	var id lsl.SessionID
	binary.BigEndian.PutUint64(id[:8], s.rng.next())
	binary.BigEndian.PutUint64(id[8:], s.rng.next())
	return id
}

// overlayNodes is the size of the generated planning overlay.
const overlayNodes = 50

// genOverlay writes a connected overlay in the internal/overlay text
// format: one initiator "src", one target "dst", and depots d00..d47 on a
// ring with seeded chords, every edge with seeded RTT, bandwidth and loss.
// It returns the text and the target's address.
func genOverlay(seed int64) (text, targetAddr string) {
	rng := newRNG(seed, "overlay")
	depots := overlayNodes - 2
	var b strings.Builder
	name := func(i int) string { return fmt.Sprintf("d%02d", i) }
	targetAddr = "10.0.255.2:7000"
	b.WriteString("node src addr 10.0.255.1:7000\n")
	fmt.Fprintf(&b, "node dst addr %s\n", targetAddr)
	for i := 0; i < depots; i++ {
		fmt.Fprintf(&b, "node %s depot addr 10.0.%d.%d:5000\n", name(i), i/200, 1+i%200)
	}
	seen := map[string]bool{}
	edge := func(a, c string) {
		if a == c || seen[a+"|"+c] || seen[c+"|"+a] {
			return
		}
		seen[a+"|"+c] = true
		rtt := 2 + 58*rng.float()  // ms
		bw := 50 + 950*rng.float() // Mbit/s
		loss := 0.00005 + 0.001*rng.float()
		fmt.Fprintf(&b, "edge %s %s %.3f %.1f %.6f\n", a, c, rtt, bw, loss)
	}
	for i := 0; i < depots; i++ {
		edge(name(i), name((i+1)%depots))
	}
	for i := 0; i < depots; i++ { // one chord per depot
		j := (i + 2 + rng.intn(depots-3)) % depots
		edge(name(i), name(j))
	}
	// The end hosts attach to four depots each, on opposite sides of the
	// ring, plus a slow direct edge so "direct" is always a candidate.
	for k := 0; k < 4; k++ {
		edge("src", name(rng.intn(depots/2)))
		edge("dst", name(depots/2+rng.intn(depots/2)))
	}
	fmt.Fprintf(&b, "edge src dst %.3f %.1f %.6f\n", 80+40*rng.float(), 20+30*rng.float(), 0.001)
	return b.String(), targetAddr
}
