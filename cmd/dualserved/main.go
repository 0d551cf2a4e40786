// Command dualserved serves the dualspace engine over HTTP/JSON: duality
// decisions with a sharded canonical-fingerprint verdict cache, NDJSON
// batch decision with in-stream dedup (/v1/batch), streaming border mining
// (/v1/mine), streaming minimal transversal enumeration, and the paper's
// three database applications (itemset borders, additional keys, coterie
// non-domination). docs/API.md documents the endpoints.
//
// Usage:
//
//	dualserved [-addr host:port] [-workers n] [-cache n] [-cache-shards n]
//	           [-memo n] [-max-edges n] [-max-edge-verts n] [-max-universe n]
//	           [-max-body bytes] [-stream-max n] [-batch-max-items n]
//	           [-batch-max-bytes n] [-pprof host:port] [-access-log]
//	           [-log-format text|json]
//	           [-queue-depth n] [-queue-wait d] [-retry-after d]
//	           [-decide-timeout d] [-batch-timeout d] [-mine-timeout d]
//	           [-stream-timeout d] [-apps-timeout d] [-max-timeout d]
//	           [-drain-grace d] [-faults spec] [-fault-seed n]
//	           [-self host:port] [-peers a,b,c] [-peer-timeout d]
//	           [-peer-fanout n] [-verdict-log dir] [-vlog-segment-bytes n]
//	           [-vlog-compact-interval d] [-vlog-sync]
//
// The listen address is printed to stdout once the socket is bound (so
// -addr 127.0.0.1:0 works for scripted use). SIGINT/SIGTERM trigger a
// graceful drain: /readyz flips to 503 immediately so load balancers stop
// routing, queued waiters are shed, -drain-grace elapses to let routing
// converge and in-flight streams finish cleanly, then the listener closes.
//
// Resilience (docs/API.md error taxonomy): -queue-depth/-queue-wait bound
// the admission queue (excess is shed with 503 + Retry-After, hinted by
// -retry-after); the -*-timeout flags set per-endpoint compute budgets
// (504 with reason "timeout"; clients may lower their own with
// ?timeout_ms=, capped by -max-timeout). -faults arms the fault-injection
// harness (internal/faultinject spec grammar, e.g.
// "decide:panic:every=7,stream_write:delay=20ms:p=0.25") with a
// deterministic -fault-seed — a chaos-testing mode, never for production.
//
// Cluster mode (docs/CLUSTER.md): -peers lists every replica (including
// this one) and -self names this replica's address as it appears in that
// list; all replicas must agree on the member list. A local cache miss
// whose canonical key hashes to another replica is filled from that
// replica's cache over POST /v1/cluster/verdict (budgeted by
// -peer-timeout, bounded by -peer-fanout concurrent fills, guarded by a
// per-peer circuit breaker) before falling back to local compute.
// -verdict-log makes verdicts durable: every stored verdict is appended
// to a CRC-framed segment log in that directory and replayed into the
// cache on the next start (warm restarts); -vlog-compact-interval
// periodically rewrites the log to its live set.
//
// Observability (docs/OBSERVABILITY.md): GET /metricsz serves the
// Prometheus text exposition; -access-log emits one structured slog record
// per request to stderr (-log-format picks the encoding); -pprof serves
// net/http/pprof on a second, separately bindable listener so profiling
// endpoints are never exposed on the service port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dualspace/internal/cluster"
	"dualspace/internal/faultinject"
	"dualspace/internal/hgio"
	"dualspace/internal/service"
	"dualspace/internal/verdictlog"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8372", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "max concurrent decision computations (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 1024, "verdict cache capacity in entries (negative disables)")
	cacheShards := flag.Int("cache-shards", 0, "verdict cache shard count (0 = default, rounded up to a power of two)")
	memo := flag.Int("memo", 0, "per-worker subinstance-memo budget: n entries plus at most n×32 words of key storage, reset when full (0 = 4096, at most about 1.1 MiB; negative disables)")
	maxEdges := flag.Int("max-edges", service.DefaultLimits.MaxEdges, "max edges/rows per input")
	maxEdgeVerts := flag.Int("max-edge-verts", service.DefaultLimits.MaxEdgeVerts, "max vertices per edge")
	maxUniverse := flag.Int("max-universe", service.DefaultLimits.MaxUniverse, "max distinct vertex/item names per request")
	maxBody := flag.Int64("max-body", 4<<20, "max request body bytes")
	streamMax := flag.Int("stream-max", 1<<16, "server-side cap on /v1/transversals limit")
	batchMaxItems := flag.Int("batch-max-items", 4096, "max rows per /v1/batch request")
	batchMaxBytes := flag.Int64("batch-max-bytes", 64<<20, "max /v1/batch request body bytes")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this host:port (empty disables)")
	accessLog := flag.Bool("access-log", false, "log one structured record per request to stderr")
	logFormat := flag.String("log-format", "text", "access-log encoding: text or json")
	queueDepth := flag.Int("queue-depth", 0, "max requests parked waiting for a worker slot (0 = max(16, 4*workers); negative sheds immediately)")
	queueWait := flag.Duration("queue-wait", 0, "max time one request may park before it is shed (0 = 5s)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on shed responses (0 = 1s)")
	decideTimeout := flag.Duration("decide-timeout", 0, "/v1/decide compute budget (0 = none)")
	batchTimeout := flag.Duration("batch-timeout", 0, "/v1/batch whole-drain compute budget (0 = none)")
	mineTimeout := flag.Duration("mine-timeout", 0, "/v1/mine compute budget (0 = none)")
	streamTimeout := flag.Duration("stream-timeout", 0, "/v1/transversals compute budget (0 = none)")
	appsTimeout := flag.Duration("apps-timeout", 0, "/v1/borders,/v1/keys,/v1/coteries compute budget (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on the client ?timeout_ms= override (0 = 60s)")
	drainGrace := flag.Duration("drain-grace", 0, "pause between flipping /readyz to 503 and closing the listener")
	faults := flag.String("faults", "", "arm the fault-injection harness with this spec (chaos testing only)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault triggers")
	self := flag.String("self", "", "this replica's address as listed in -peers (required with -peers)")
	peers := flag.String("peers", "", "comma-separated cluster member addresses, including -self (empty = single node)")
	peerTimeout := flag.Duration("peer-timeout", 0, "per-fill peer request budget (0 = 2s)")
	peerFanout := flag.Int("peer-fanout", 0, "max concurrent outbound peer fills (0 = 32)")
	verdictLogDir := flag.String("verdict-log", "", "append verdicts to segment files in this directory and replay them on start (empty disables)")
	vlogSegBytes := flag.Int64("vlog-segment-bytes", 0, "roll verdict-log segments at this size (0 = 4MiB)")
	vlogCompactInterval := flag.Duration("vlog-compact-interval", 0, "rewrite the verdict log to its live set this often (0 = never)")
	vlogSync := flag.Bool("vlog-sync", false, "fsync the verdict log after every append (durable but slow)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: dualserved [flags]")
		os.Exit(2)
	}
	var logger *slog.Logger
	if *accessLog {
		switch *logFormat {
		case "text":
			logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		case "json":
			logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		default:
			fmt.Fprintf(os.Stderr, "dualserved: bad -log-format %q (want text or json)\n", *logFormat)
			os.Exit(2)
		}
	}

	var peerClient *cluster.Client
	if *peers != "" {
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		c, err := cluster.New(cluster.Config{
			Self:               *self,
			Peers:              list,
			Timeout:            *peerTimeout,
			MaxConcurrentFills: *peerFanout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dualserved:", err)
			os.Exit(2)
		}
		peerClient = c
		if peerClient != nil {
			fmt.Fprintf(os.Stderr, "dualserved: cluster mode: self=%s peers=%v\n",
				peerClient.Self(), peerClient.PeerAddrs())
		}
	}

	var vlog *verdictlog.Log
	if *verdictLogDir != "" {
		l, err := verdictlog.Open(*verdictLogDir, verdictlog.Options{
			SegmentBytes: *vlogSegBytes,
			Sync:         *vlogSync,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dualserved: verdict log:", err)
			os.Exit(2)
		}
		vlog = l
	}

	srv := service.New(service.Config{
		Workers:     *workers,
		CacheSize:   *cache,
		CacheShards: *cacheShards,
		MemoEntries: *memo,
		Limits: hgio.Limits{
			MaxEdges:     *maxEdges,
			MaxEdgeVerts: *maxEdgeVerts,
			MaxUniverse:  *maxUniverse,
			MaxLineBytes: service.DefaultLimits.MaxLineBytes,
		},
		MaxBodyBytes:     *maxBody,
		MaxStreamResults: *streamMax,
		MaxBatchItems:    *batchMaxItems,
		MaxBatchBytes:    *batchMaxBytes,
		Logger:           logger,
		QueueDepth:       *queueDepth,
		QueueWait:        *queueWait,
		RetryAfter:       *retryAfter,
		DecideTimeout:    *decideTimeout,
		BatchTimeout:     *batchTimeout,
		MineTimeout:      *mineTimeout,
		StreamTimeout:    *streamTimeout,
		AppsTimeout:      *appsTimeout,
		MaxTimeout:       *maxTimeout,
		Cluster:          peerClient,
		VerdictLog:       vlog,
	})

	if vlog != nil && *vlogCompactInterval > 0 {
		// Periodic compaction bounds replay time and disk use; a failed
		// compaction is logged and retried at the next tick.
		compactQuit := make(chan struct{})
		defer close(compactQuit)
		go func() {
			t := time.NewTicker(*vlogCompactInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := vlog.Compact(); err != nil {
						fmt.Fprintln(os.Stderr, "dualserved: verdict-log compact:", err)
					}
				case <-compactQuit:
					return
				}
			}
		}()
	}

	if *faults != "" {
		inj, err := faultinject.ParseSpec(*faults, *faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dualserved:", err)
			os.Exit(2)
		}
		faultinject.Enable(inj)
		fmt.Fprintf(os.Stderr, "dualserved: FAULT INJECTION ARMED (%s; seed %d) — chaos-testing mode\n", *faults, *faultSeed)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dualserved:", err)
		os.Exit(2)
	}
	fmt.Printf("dualserved listening on %s\n", ln.Addr())

	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener: the DefaultServeMux
		// registrations are ignored, and the service port never exposes
		// profiling handlers.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dualserved: pprof:", err)
			os.Exit(2)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("dualserved pprof on %s\n", pln.Addr())
		go func() {
			ps := &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			if err := ps.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "dualserved: pprof:", err)
			}
		}()
	}

	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dualserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// Drain sequence: flip /readyz to 503 and fail queued waiters fast,
	// give load balancers -drain-grace to stop routing here (cache hits and
	// in-flight work keep being served throughout), then stop accepting and
	// wait for in-flight requests under the shutdown deadline.
	srv.BeginDrain()
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		// In-flight streams past the drain deadline are cut off.
		_ = hs.Close()
	}
	// Stop the async verdict-log writer (flushing queued appends), then
	// close the log file itself — strictly after Close so no append races
	// a closed file.
	srv.Close()
	if vlog != nil {
		if err := vlog.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dualserved: verdict log:", err)
		}
	}
	fmt.Println("dualserved: drained, bye")
}
