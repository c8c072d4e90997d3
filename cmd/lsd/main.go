// Command lsd is the Logistical Session Layer depot daemon: an
// unprivileged user-level forwarding process (paper §IV-A). It accepts
// LSL session-open headers, dials the next hop of each session's loose
// source route, and relays bytes in both directions through a small
// bounded buffer.
//
// Usage:
//
//	lsd -listen :5000 [-max-sessions 256] [-v]
//	lsd -listen :5000 -stats 10s     # print counters periodically
//	lsd -listen :5000 -admin :9090   # /metrics /healthz /sessions /debug/pprof
//	lsd -listen :5000 -drain 10s     # bound shutdown: drain, then cancel
//	lsd -listen :5000 -mux           # dial persistent trunks to next hops
//	lsd -listen :5000 -sockbuf 4194304  # 4 MiB socket buffers on every sublink
//	lsd -listen :5000 -graph overlay.txt -self denver -admin :9090
//	                                 # feed relay measurements into the live
//	                                 # logistics planner; forecasts at /plan
//	lsd -listen :5000 -graph overlay.txt -self denver \
//	    -gossip-peers chicago:5000,ncsa:5000
//	                                 # share edge forecasts with peer depots
//	                                 # by anti-entropy gossip
//	lsd -listen :5000 -state-dir /var/lib/lsd  # durable custody: staged
//	                                 # payloads journaled to disk, recovered
//	                                 # and redelivered after a restart
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"lsl"
	"lsl/internal/sizeparse"
)

func main() {
	var (
		listen      = flag.String("listen", ":5000", "address to accept LSL sessions on")
		admin       = flag.String("admin", "", "admin HTTP address for /metrics, /healthz, /sessions, /debug/pprof (empty = disabled)")
		maxSessions = flag.Int("max-sessions", 256, "concurrent session admission limit")
		drain       = flag.Duration("drain", 30*time.Second, "shutdown drain: in-flight sessions get this long before being cancelled (<0 = unbounded)")
		statsEvery  = flag.Duration("stats", 0, "print counters at this interval (0 = off)")
		dialTO      = flag.Duration("dial-timeout", 0, "next-hop connection establishment timeout (0 = default 10s)")
		stageRetry  = flag.Duration("stage-retry", 0, "staged redelivery backoff base (0 = default 2s)")
		stageRetMax = flag.Duration("stage-retry-max", 0, "staged redelivery backoff cap (0 = default 30s)")
		muxOn       = flag.Bool("mux", false, "dial persistent trunks to next hops and multiplex sessions over them (every depot accepts trunks from upstream peers, with or without -mux)")
		sockBuf     = flag.Int("sockbuf", 0, "SO_SNDBUF/SO_RCVBUF for every accepted and dialed connection in bytes (0 = kernel default; TCP_NODELAY is always set)")
		graphF      = flag.String("graph", "", "overlay graph file (lslplan format): run a live logistics planner fed by this depot's relay measurements")
		selfNode    = flag.String("self", "", "this depot's node name in the -graph overlay")
		gossipPeers = flag.String("gossip-peers", "", "comma-separated peer depot addresses to exchange forecast gossip with (needs -graph/-self)")
		gossipEvery = flag.Duration("gossip-interval", 0, "mean time between gossip rounds (0 = default 5s); actual spacing is jittered")
		stateDir    = flag.String("state-dir", "", "durable state directory: staged payloads are journaled here and recovered after a restart; the logistics planner's forecasts persist here too (empty = in-memory custody only)")
		maxStage    = flag.String("max-stage", "", "largest staged payload accepted per session, e.g. 64M (empty = default 64M)")
		maxStageTot = flag.String("max-stage-total", "", "global custody budget across all staged sessions, e.g. 1G; beyond it new staged sessions are shed (empty = 4x -max-stage)")
		fsyncMode   = flag.String("fsync", "always", "custody journal fsync policy: always (durable across host crashes) or never (OS-buffered)")
		verbose     = flag.Bool("v", false, "log each session")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "lsd ", log.LstdFlags)

	var maxStageBytes, maxStageTotal int64
	if *maxStage != "" {
		n, err := sizeparse.Parse(*maxStage)
		if err != nil {
			logger.Fatalf("-max-stage: %v", err)
		}
		maxStageBytes = n
	}
	if *maxStageTot != "" {
		n, err := sizeparse.Parse(*maxStageTot)
		if err != nil {
			logger.Fatalf("-max-stage-total: %v", err)
		}
		maxStageTotal = n
	}
	fsync, err := lsl.ParseFsync(*fsyncMode)
	if err != nil {
		logger.Fatalf("-fsync: %v", err)
	}

	var journal *lsl.CustodyJournal
	if *stateDir != "" {
		journal, err = lsl.OpenCustody(*stateDir, lsl.CustodyConfig{Fsync: fsync, Logf: logger.Printf})
		if err != nil {
			logger.Fatalf("opening custody journal: %v", err)
		}
		if n := len(journal.Recovered()); n > 0 {
			logger.Printf("custody journal: recovered %d staged session(s), %d bytes", n, journal.LiveBytes())
		}
	}

	var planner *lsl.Planner
	if *graphF != "" {
		if *selfNode == "" {
			logger.Fatal("-graph needs -self (this depot's node name)")
		}
		f, err := os.Open(*graphF)
		if err != nil {
			logger.Fatal(err)
		}
		planner, err = lsl.PlannerFromOverlay(f, lsl.NodeID(*selfNode))
		f.Close()
		if err != nil {
			logger.Fatalf("building planner: %v", err)
		}
	}
	var plannerSnap string
	if planner != nil && *stateDir != "" {
		plannerSnap = filepath.Join(*stateDir, "planner.json")
		switch err := planner.LoadSnapshot(plannerSnap); {
		case err == nil:
			logger.Printf("planner: forecasts warm-started from %s", plannerSnap)
		case os.IsNotExist(err):
			// First boot on this state dir.
		default:
			logger.Printf("planner: ignoring snapshot: %v", err)
		}
	}
	cfg := lsl.DepotConfig{
		MaxSessions:        *maxSessions,
		DrainTimeout:       *drain,
		DialTimeout:        *dialTO,
		StageRetryInterval: *stageRetry,
		StageRetryMax:      *stageRetMax,
		Mux:                *muxOn,
		SockBuf:            *sockBuf,
		MaxStageBytes:      maxStageBytes,
		MaxTotalStageBytes: maxStageTotal,
		Custody:            journal,
	}
	if *verbose {
		cfg.Logf = logger.Printf
	}
	// The gossiper is built after the depot (it rides the depot's trunk
	// dialer), but the depot's accept path needs the handler now — a
	// closure over the late-bound pointer breaks the cycle. Until the
	// gossiper exists, inbound LSLG connections are dropped.
	var gossiper *lsl.Gossiper
	if planner != nil {
		cfg.OnSessionEnd = planner.DepotHook()
		if *gossipPeers != "" {
			cfg.OnGossip = func(c net.Conn) {
				if gossiper != nil {
					gossiper.ServeConn(c)
				} else {
					c.Close()
				}
			}
		}
		// /plan keeps the planner view's shape and gains a "gossip"
		// section when gossip is on.
		cfg.PlanView = func() interface{} {
			v := struct {
				lsl.PlannerView
				Gossip *lsl.GossipStatus `json:"gossip,omitempty"`
			}{PlannerView: planner.Snapshot()}
			if gossiper != nil {
				st := gossiper.Status()
				v.Gossip = &st
			}
			return v
		}
	} else if *gossipPeers != "" {
		logger.Fatal("-gossip-peers needs -graph/-self (the planner supplies the observations to share)")
	}
	d := lsl.NewDepot(cfg)
	if planner != nil {
		// Render lsl_logistics_* next to the depot's own families on
		// /metrics.
		planner.SetMetrics(lsl.NewPlannerMetrics(d.Metrics()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if planner != nil && *gossipPeers != "" {
		peers := strings.Split(*gossipPeers, ",")
		for i := range peers {
			peers[i] = strings.TrimSpace(peers[i])
		}
		g, err := lsl.NewGossiper(lsl.GossipConfig{
			Planner:  planner,
			Peers:    peers,
			Interval: *gossipEvery,
			Dial:     d.Dialer(), // ride warm mux trunks where they exist
			Metrics:  lsl.NewGossipMetrics(d.Metrics()),
			Logf:     logger.Printf,
		})
		if err != nil {
			logger.Fatalf("gossip: %v", err)
		}
		gossiper = g
		go gossiper.Run(ctx)
		logger.Printf("forecast gossip: %d peer(s), interval %s", len(peers), g.Status().Interval)
	}

	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					s := d.Stats()
					logger.Printf("sessions: active=%d accepted=%d completed=%d rejected(busy=%d route=%d proto=%d) dialfail=%d bytes(fwd=%d back=%d) maxbuf=%d",
						s.Active, s.Accepted, s.Completed, s.RejectedBusy, s.RejectedRoute, s.RejectedProto,
						s.DialFailures, s.BytesForward, s.BytesBackward, s.MaxBuffered)
				}
			}
		}()
	}

	var adminSrv *http.Server
	if *admin != "" {
		adminSrv = &http.Server{Addr: *admin, Handler: lsl.DepotAdminHandler(d)}
		go func() {
			logger.Printf("admin endpoint on %s (/metrics /healthz /sessions /plan /debug/pprof)", *admin)
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("admin server: %v", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() {
		logger.Printf("depot listening on %s (max-sessions=%d)", *listen, *maxSessions)
		serveErr <- d.ListenAndServe(*listen)
	}()

	select {
	case err := <-serveErr:
		if err != nil {
			logger.Fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		logger.Printf("shutting down")
	}

	d.Close()
	if journal != nil {
		if err := journal.Close(); err != nil {
			logger.Printf("closing custody journal: %v", err)
		}
	}
	if plannerSnap != "" {
		if err := planner.SaveSnapshot(plannerSnap); err != nil {
			logger.Printf("saving planner snapshot: %v", err)
		} else {
			logger.Printf("planner: forecasts saved to %s", plannerSnap)
		}
	}
	if adminSrv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		adminSrv.Shutdown(shutdownCtx)
		cancel()
	}
}
