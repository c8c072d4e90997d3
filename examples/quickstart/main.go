// Quickstart: the smallest complete LSL deployment, all in one process —
// a session target, a depot, and an initiator that sends an MD5-verified
// payload through the cascade.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"time"

	"lsl"
)

func main() {
	log.SetFlags(0)

	// 1. A session target: the ultimate receiver.
	target, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer target.Close()
	done := make(chan int64, 1)
	go func() {
		sc, err := target.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		n, err := io.Copy(io.Discard, sc)
		if err != nil {
			log.Fatalf("target: %v", err)
		}
		if !sc.Verified() {
			log.Fatal("target: digest not verified")
		}
		fmt.Printf("target: received %d bytes on session %s (MD5 verified)\n", n, sc.SessionID())
		done <- n
	}()

	// 2. An lsd depot: the intermediate session-layer router.
	depotLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	depot := lsl.NewDepot(lsl.DepotConfig{})
	go depot.Serve(depotLn)
	defer depot.Close()
	fmt.Printf("depot:  forwarding on %s\n", depotLn.Addr())

	// 3. The initiator: open a session with a loose source route through
	//    the depot and stream a payload with end-to-end integrity.
	payload := make([]byte, 4<<20)
	rand.New(rand.NewSource(7)).Read(payload)

	start := time.Now()
	conn, err := lsl.Dial(context.Background(),
		lsl.Route{Via: []string{depotLn.Addr().String()}, Target: target.Addr().String()},
		lsl.WithDigest(),
		lsl.WithContentLength(int64(len(payload))),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	fmt.Printf("client: session %s open (route confirmed end-to-end)\n", conn.SessionID())

	if _, err := io.Copy(conn, bytes.NewReader(payload)); err != nil {
		log.Fatal(err)
	}
	if err := conn.CloseWrite(); err != nil {
		log.Fatal(err)
	}

	n := <-done
	elapsed := time.Since(start)
	fmt.Printf("client: %d bytes through 1 depot in %v (%.1f Mbit/s on loopback)\n",
		n, elapsed.Round(time.Millisecond), float64(n)*8/elapsed.Seconds()/1e6)

	// The depot finishes its bookkeeping when both relay directions close;
	// wait for that before reading the counters.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := depot.WaitStats(ctx, func(st lsl.DepotStats) bool { return st.Completed > 0 }); err != nil {
		log.Fatalf("depot: session never completed: %v", err)
	}
	st := depot.Stats()
	fmt.Printf("depot:  forwarded %d bytes across %d session(s)\n", st.BytesForward, st.Accepted)
}
