// Command lslcat is netcat for the Logistical Session Layer.
//
// Receive (session target):
//
//	lslcat -listen :7000 > received.bin
//
// Send stdin through a cascade of depots with end-to-end MD5 verification
// (digest requires -size, or use -file which infers it):
//
//	lslcat -route depot1:5000,depot2:5000 -target server:7000 -file big.iso
//	head -c 10M /dev/urandom | lslcat -target server:7000 -size 10485760
//
// Benchmark mode sends synthetic data and prints the achieved throughput:
//
//	lslcat -route depot:5000 -target server:7000 -bench 64M
//
// Self-healing mode retries transient failures with resume and routes
// around dead depots (needs a seekable source):
//
//	lslcat -route depot1:5000,depot2:5000 -target server:7000 -file big.iso -retries 8
//
// Auto-routing picks the cascade itself: give it an overlay graph (the
// lslplan format) and the local node's name, and the live logistics
// planner ranks candidate routes by forecast completion time, starts on
// the best one, and replans onto the next-best after failures:
//
//	lslcat -graph overlay.txt -from ucsb -auto-route -target server:7000 -file big.iso
//
// Striped mode carries one stream over N concurrent self-healing
// sessions; with -auto-route the planner places them on link-disjoint
// routes weighted by predicted throughput. The listener reassembles one
// group and exits:
//
//	lslcat -listen :7000 -stripes 3 > received.bin
//	lslcat -graph overlay.txt -from ucsb -auto-route -stripes 3 -target server:7000 -file big.iso
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"lsl"
	"lsl/internal/sizeparse"
)

// confirmTimeout bounds the plain sender's wait for the cascade to unwind
// after the last payload byte (the engine's bound for the same step).
const confirmTimeout = 30 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("lslcat: ")
	var (
		listen  = flag.String("listen", "", "accept sessions on this address and copy payload to stdout")
		routeS  = flag.String("route", "", "comma-separated depot addresses (loose source route)")
		target  = flag.String("target", "", "final destination address")
		file    = flag.String("file", "", "send this file (enables digest, sets size)")
		sizeS   = flag.String("size", "", "payload size in bytes when sending from stdin")
		benchS  = flag.String("bench", "", "send this much synthetic data (e.g. 64M) and report throughput")
		eager   = flag.Bool("eager", false, "pipeline the open: stream behind the header without waiting for the end-to-end accept")
		noDig   = flag.Bool("no-digest", false, "disable the end-to-end MD5 trailer")
		retries = flag.Int("retries", 0, "self-heal transient failures with up to this many re-dials (resume + failover; needs a seekable source: -file or -bench)")
		graphF  = flag.String("graph", "", "overlay graph file (lslplan format) for -auto-route")
		from    = flag.String("from", "", "this host's node name in the -graph overlay")
		autoRt  = flag.Bool("auto-route", false, "let the logistics planner choose and adapt the route (needs -graph and -from; implies the self-healing engine)")
		stripes = flag.Int("stripes", 1, "stripe the stream over this many concurrent self-healing sessions (send needs -file or -bench; listen reassembles one group and exits)")
		quiet   = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	var planner *lsl.Planner
	if *autoRt {
		if *graphF == "" || *from == "" {
			log.Fatal("-auto-route needs -graph and -from")
		}
		f, err := os.Open(*graphF)
		if err != nil {
			log.Fatal(err)
		}
		planner, err = lsl.PlannerFromOverlay(f, lsl.NodeID(*from))
		f.Close()
		if err != nil {
			log.Fatalf("building planner: %v", err)
		}
	}

	switch {
	case *listen != "" && *stripes > 1:
		runStripedTarget(*listen, *stripes, *quiet)
	case *listen != "":
		runTarget(*listen, *quiet)
	case *target != "":
		runSender(*routeS, *target, *file, *sizeS, *benchS, *eager, *noDig, *retries, *stripes, *quiet, planner)
	default:
		log.Fatal("need -listen (receive) or -target (send); see -h")
	}
}

// runStripedTarget reassembles one stripe group onto stdout and exits.
func runStripedTarget(addr string, stripes int, quiet bool) {
	ln, err := lsl.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	if !quiet {
		log.Printf("listening on %s for a %d-stripe group", ln.Addr(), stripes)
	}
	start := time.Now()
	n, err := lsl.StripedReceive(ln, stripes, os.Stdout)
	if err != nil {
		log.Fatalf("striped receive failed after %d bytes: %v", n, err)
	}
	if !quiet {
		el := time.Since(start)
		log.Printf("striped group: %d bytes in %v = %.2f Mbit/s",
			n, el.Round(time.Millisecond), float64(n)*8/el.Seconds()/1e6)
	}
}

func runTarget(addr string, quiet bool) {
	ln, err := lsl.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	if !quiet {
		log.Printf("listening on %s", ln.Addr())
	}
	for {
		sc, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			defer sc.Close()
			start := time.Now()
			n, err := io.Copy(os.Stdout, sc)
			el := time.Since(start)
			switch {
			case err != nil:
				log.Printf("session %s failed after %d bytes: %v", sc.SessionID(), n, err)
			case !quiet:
				verified := ""
				if sc.Digesting() && sc.Verified() {
					verified = " (MD5 verified)"
				}
				log.Printf("session %s: %d bytes in %v = %.2f Mbit/s%s",
					sc.SessionID(), n, el.Round(time.Millisecond),
					float64(n)*8/el.Seconds()/1e6, verified)
			}
		}()
	}
}

func runSender(routeS, target, file, sizeS, benchS string, eager, noDigest bool, retries, stripes int, quiet bool, planner *lsl.Planner) {
	route := lsl.Route{Target: target}
	if routeS != "" {
		route.Via = strings.Split(routeS, ",")
	}

	var src io.Reader
	var size int64 = -1
	switch {
	case benchS != "":
		n, err := sizeparse.Parse(benchS)
		if err != nil {
			log.Fatalf("bad -bench: %v", err)
		}
		size = n
		if retries > 0 || stripes > 1 {
			// The resilient engine re-reads the stream from the resume
			// offset (striping re-reads frames on reassignment), so the
			// synthetic payload must be random-access: hold it in memory
			// instead of streaming from the generator.
			buf, err := io.ReadAll(io.LimitReader(rand.New(rand.NewSource(1)), n))
			if err != nil {
				log.Fatal(err)
			}
			src = bytes.NewReader(buf)
		} else {
			src = io.LimitReader(rand.New(rand.NewSource(1)), n)
		}
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			log.Fatal(err)
		}
		size = st.Size()
		src = f
	default:
		src = os.Stdin
		if sizeS != "" {
			n, err := sizeparse.Parse(sizeS)
			if err != nil {
				log.Fatalf("bad -size: %v", err)
			}
			size = n
		}
	}

	if stripes > 1 {
		ra, ok := src.(io.ReaderAt)
		if !ok || size < 0 {
			log.Fatal("-stripes needs a sized, random-access source: use -file or -bench, not stdin")
		}
		if eager {
			log.Fatal("-stripes and -eager are mutually exclusive")
		}
		runStriped(route, ra, size, stripes, retries, quiet, planner)
		return
	}

	if retries > 0 || planner != nil {
		rs, ok := src.(io.ReadSeeker)
		if !ok {
			log.Fatal("-retries/-auto-route need a seekable source: use -file or -bench, not stdin")
		}
		if eager {
			log.Fatal("-retries/-auto-route and -eager are mutually exclusive: the self-healing engine already pipelines its first attempt, -eager has nothing to add")
		}
		runResilient(route, rs, size, retries, noDigest, quiet, planner)
		return
	}

	opts := []lsl.Option{}
	if size >= 0 {
		opts = append(opts, lsl.WithContentLength(size))
		if !noDigest {
			opts = append(opts, lsl.WithDigest())
		}
	} else if !noDigest && !quiet {
		log.Printf("note: unknown size, digest disabled (use -size or -file)")
	}
	if eager {
		opts = append(opts, lsl.WithEager())
	}

	start := time.Now()
	c, err := lsl.Dial(context.Background(), route, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	setup := time.Since(start)

	n, err := io.Copy(c, src)
	if err != nil {
		log.Fatalf("send: %v", err)
	}
	if err := c.CloseWrite(); err != nil {
		log.Fatal(err)
	}
	// Wait for the cascade to unwind before calling it sent. With -eager
	// nothing has looked at the backward channel yet: this read is where a
	// busy or misrouted cascade's refusal surfaces. Bounded, as the engine
	// bounds the same step: a cascade that never closes the backward
	// channel is a failure, not a reason to hang.
	c.SetDeadline(time.Now().Add(confirmTimeout))
	if _, err := io.Copy(io.Discard, c); err != nil {
		log.Fatalf("session %s: %v", c.SessionID(), err)
	}
	el := time.Since(start)
	if !quiet {
		hops := len(route.Via)
		fmt.Fprintf(os.Stderr,
			"lslcat: session %s: %d bytes via %d depot(s) in %v (setup %v) = %.2f Mbit/s\n",
			c.SessionID(), n, hops, el.Round(time.Millisecond), setup.Round(time.Millisecond),
			float64(n)*8/el.Seconds()/1e6)
	}
}

// transferOpts are the options the self-healing engine takes for both a
// single transfer and a striped group.
func transferOpts(retries int, quiet bool, planner *lsl.Planner) []lsl.TransferOption {
	var opts []lsl.TransferOption
	if retries > 0 {
		opts = append(opts, lsl.WithTransferPolicy(lsl.TransferPolicy{MaxAttempts: retries + 1}))
	}
	if planner != nil {
		opts = append(opts, lsl.WithPlanner(planner))
	}
	if !quiet {
		opts = append(opts, lsl.WithTransferLogf(log.Printf))
	}
	return opts
}

// runStriped sends src over stripes concurrent self-healing sessions.
// With a planner the sessions land on link-disjoint routes weighted by
// predicted throughput; without one, they share the given route.
func runStriped(route lsl.Route, src io.ReaderAt, size int64, stripes, retries int, quiet bool, planner *lsl.Planner) {
	opts := append(transferOpts(retries, quiet, planner), lsl.WithStripes(stripes))
	start := time.Now()
	res, err := lsl.StripedTransfer(context.Background(), []lsl.Route{route}, src, size, opts...)
	if err != nil {
		log.Fatalf("striped transfer: %v", err)
	}
	if !quiet {
		el := time.Since(start)
		fmt.Fprintf(os.Stderr,
			"lslcat: group %s: %d bytes over %d stripes in %v = %.2f Mbit/s (heals %d, replans %d, abandoned %d, rebalances %d, tail %v)\n",
			res.Group, res.Bytes, res.Stripes, el.Round(time.Millisecond),
			float64(res.Bytes)*8/el.Seconds()/1e6,
			res.Heals, res.Replans, res.Abandoned, res.Rebalances,
			res.Tail.Round(time.Millisecond))
		for i, r := range res.Routes {
			log.Printf("stripe %d: %d bytes via %v", i, res.StripeBytes[i], r.Hops())
		}
	}
}

// runResilient sends src through the self-healing transfer engine: every
// transient failure (reset, dead depot, timeout) is retried with resume,
// and a dead first-hop depot is dropped from the route. With a planner,
// the route itself comes from live forecasts and failover goes to the
// next-best predicted candidate instead.
func runResilient(route lsl.Route, src io.ReadSeeker, size int64, retries int, noDigest, quiet bool, planner *lsl.Planner) {
	opts := transferOpts(retries, quiet, planner)
	if noDigest {
		opts = append(opts, lsl.WithoutTransferDigest())
	}
	start := time.Now()
	res, err := lsl.Transfer(context.Background(), route, src, size, opts...)
	if err != nil {
		log.Fatalf("transfer: %v", err)
	}
	if !quiet {
		el := time.Since(start)
		fmt.Fprintf(os.Stderr,
			"lslcat: session %s: %d bytes via %d depot(s) in %v = %.2f Mbit/s (attempts %d, failovers %d)\n",
			res.Session, res.Bytes, len(res.Route.Via), el.Round(time.Millisecond),
			float64(res.Bytes)*8/el.Seconds()/1e6, res.Attempts, res.Failovers)
	}
}
