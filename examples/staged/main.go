// Staged demonstrates asynchronous sessions (paper §III: "the ultimate
// sending and receiving ports need not exist at the same time"): a sender
// uploads to a depot and disconnects while the receiver does not exist
// yet; the depot takes custody and delivers — with the end-to-end MD5
// intact — once the receiver appears.
//
//	go run ./examples/staged
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

	// A depot with custody enabled (it always is; the knobs just bound it).
	depotLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	depot := lsl.NewDepot(lsl.DepotConfig{
		MaxStageBytes:      16 << 20,
		StageRetryInterval: 200 * time.Millisecond,
		StageDeadline:      time.Minute,
	})
	go depot.Serve(depotLn)
	defer depot.Close()

	// Reserve the receiver's future address... and keep it offline.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	receiverAddr := tmp.Addr().String()
	tmp.Close()
	fmt.Printf("receiver %s is OFFLINE\n", receiverAddr)

	// The sender uploads into depot custody and leaves.
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	conn, err := lsl.Dial(context.Background(),
		lsl.Route{Via: []string{depotLn.Addr().String()}, Target: receiverAddr},
		lsl.WithStaged(), lsl.WithDigest(), lsl.WithContentLength(int64(len(payload))))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		log.Fatal(err)
	}
	conn.CloseWrite()
	conn.Close()
	fmt.Printf("sender: uploaded %d bytes into depot custody and disconnected\n", len(payload))

	// Time passes; the depot's first delivery attempts fail.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := depot.WaitStats(ctx, func(st lsl.DepotStats) bool { return st.DialFailures >= 2 }); err != nil {
		log.Fatalf("depot: delivery attempts never failed: %v", err)
	}
	st := depot.Stats()
	fmt.Printf("depot:  holding %d staged byte(s) after %d failed delivery attempts; receiver still offline\n",
		st.StagedBytes, st.DialFailures)

	// The receiver finally appears at its address.
	ln, err := net.Listen("tcp", receiverAddr)
	if err != nil {
		log.Fatalf("rebind: %v", err)
	}
	target := lslListen(ln)
	defer target.Close()
	fmt.Printf("receiver %s comes ONLINE\n", receiverAddr)

	sc, err := target.Accept()
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Close()
	data, err := io.ReadAll(sc)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(data, payload) || !sc.Verified() {
		log.Fatal("delivered payload corrupt")
	}
	fmt.Printf("receiver: got %d bytes on session %s, MD5 verified — sender was long gone\n",
		len(data), sc.SessionID())
}

// lslListen adapts a pre-bound net.Listener into a session listener.
func lslListen(ln net.Listener) *lsl.Listener { return lsl.NewListener(ln) }
