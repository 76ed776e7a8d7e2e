// Command mediatord is the session-farm daemon: one long-running process
// hosting many concurrent cheap-talk plays behind the versioned /v1
// HTTP/JSON API (package api). It is the serving-layer counterpart of
// the paper's claim — the trusted mediator is replaced by a protocol,
// and this daemon is where thousands of such protocol sessions run side
// by side.
//
// Start the daemon (durable: sessions survive restarts in -data-dir):
//
//	mediatord -addr :8080 -workers 8 -data-dir /var/lib/mediatord -max-live-sessions 4096
//
// Drive it with the typed CLI (cmd/mediatorctl, built on pkg/client):
//
//	mediatorctl session create -n 5 -t 1 -variant 4.1 -types 0,0,0,0,0 -watch
//	mediatorctl session list -state done
//	mediatorctl experiment run e1 -trials 50
//	mediatorctl events tail
//	mediatorctl stats
//
// or raw /v1 (see api.Reference, printed by `mediatorctl apidoc`):
//
//	curl -s -X POST localhost:8080/v1/sessions -d '{"n":5,"t":1,"variant":"4.1"}'
//	curl -s -X POST localhost:8080/v1/sessions/s-000001/types -d '{"types":[0,0,0,0,0]}'
//	curl -s 'localhost:8080/v1/sessions/s-000001?wait=30s' # long-poll to terminal
//	curl -s 'localhost:8080/v1/sessions?state=done&limit=20'
//	curl -sN localhost:8080/v1/events                      # SSE state transitions
//	curl -s -X POST localhost:8080/v1/jobs -d '{"experiment":"e1","trials":50}'
//	curl -s 'localhost:8080/v1/jobs/x-000001?wait=30s'     # poll the async job
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/sessions/s-000001/trace      # stitched play trace
//	curl -s localhost:8080/metrics                         # Prometheus text format
//	curl -s localhost:8080/readyz                          # LB readiness gate
//
// Profiling: -pprof-listen binds net/http/pprof on its own listener so
// profiles never share the public API address:
//
//	mediatord -addr :8080 -pprof-listen 127.0.0.1:6060 &
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// Cluster mode: several daemons co-host one play, each running only its
// local players over the hardened transport (reconnect + resend,
// optional mutual TLS via -tls-cert/-tls-key/-tls-ca, one cluster
// endpoint per daemon bound on -cluster-listen):
//
//	mediatord -addr :8080 -cluster-listen 10.0.0.1 &   # coordinator
//	mediatord -addr :8081 -cluster-listen 10.0.0.2 &   # peer
//	mediatorctl session create -game consensus -n 4 -k 1 -variant 4.2 \
//	    -peer 2=http://10.0.0.2:8081 -peer 3=http://10.0.0.2:8081 \
//	    -types 0,0,0,0 -watch
//
// A failed cluster play names its faulty peer: the session's error
// carries the daemon's URL as its "peer" detail, and /v1/stats and
// /metrics export the per-link redial, resend and dial-error counters.
//
// Telemetry retention and SLOs: finished plays' traces are retained on
// a ring of the newest 4,096 (at most 64 MiB; searchable at GET
// /v1/traces, surviving restarts with -data-dir), and burn-rate
// objectives alert on the event bus (kind "fleet": `mediatorctl events
// tail -kind fleet`):
//
//	mediatord -addr :8080 -data-dir /var/lib/mediatord \
//	    -slo phase:ba:p99:250ms,variant:Theorem4.1:p95:1s &
//	mediatorctl traces -phase ba -min-ms 5     # search retained traces
//	mediatorctl slo                             # objective burn rates
//	curl -s 'localhost:8080/v1/traces?variant=4.1&limit=10'
//
// SIGINT/SIGTERM trigger a graceful shutdown: /readyz flips to 503 so
// load balancers drain, the listener stops, queued and in-flight
// sessions finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"asyncmediator/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mediatord:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mediatord", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	workers := fs.Int("workers", 0, "concurrent session executors (0: GOMAXPROCS)")
	queue := fs.Int("queue", 0, "session queue depth (0: default 1024)")
	seed := fs.Int64("seed", 1, "base seed for derived per-session seeds")
	maxN := fs.Int("maxn", 0, "largest per-session player count (0: default 64)")
	dataDir := fs.String("data-dir", "", "durable store directory; terminal sessions, experiment jobs, retained traces and keyed create responses survive restarts (empty: in-memory only)")
	maxLive := fs.Int("max-live-sessions", 0, "bound on in-memory sessions; terminal sessions beyond it evict to the store (0: unlimited)")
	quiet := fs.Bool("quiet", false, "disable the per-request HTTP log")
	clusterListen := fs.String("cluster-listen", "", "host the daemon's cluster endpoint binds (one ephemeral port, bound on the first wire play and shared by every player it hosts) and advertises; must be reachable from peer daemons (default 127.0.0.1)")
	tlsCert := fs.String("tls-cert", "", "PEM certificate for mutual TLS on cluster transport connections")
	tlsKey := fs.String("tls-key", "", "PEM private key paired with -tls-cert")
	tlsCA := fs.String("tls-ca", "", "PEM CA bundle both sides of every cluster connection verify against")
	readyWatermark := fs.Int("ready-watermark", 0, "queue depth at or above which GET /readyz sheds load with 503 (0: disabled)")
	chaos := fs.Bool("chaos", false, "mount POST /v1/cluster/drop, the fault-injection hook severing live cluster connections (testing only)")
	pprofListen := fs.String("pprof-listen", "", "bind net/http/pprof on this separate address (empty: disabled; keep it off public interfaces)")
	noTrace := fs.Bool("no-trace", false, "disable per-play trace collection (GET /v1/sessions/{id}/trace answers 404)")
	sloSpecs := fs.String("slo", "", "comma-separated SLO objectives, each <kind>:<selector>:p<quantile>:<threshold> (e.g. phase:ba:p99:250ms,variant:Theorem4.1:p95:1s)")
	sloInterval := fs.Duration("slo-interval", 0, "SLO burn-rate evaluation tick (0: 5s); windows are 2 and 12 ticks")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofListen != "" {
		// Explicit handlers on a private mux: importing net/http/pprof for
		// its handler funcs must not leak /debug/pprof onto any other mux.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("mediatord: pprof listening on %s", *pprofListen)
			if err := http.ListenAndServe(*pprofListen, pm); err != nil {
				log.Printf("mediatord: pprof listener failed: %v", err)
			}
		}()
	}

	cfg := service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		BaseSeed:        *seed,
		MaxN:            *maxN,
		DataDir:         *dataDir,
		MaxLiveSessions: *maxLive,
		ClusterListen:   *clusterListen,
		TLSCert:         *tlsCert,
		TLSKey:          *tlsKey,
		TLSCA:           *tlsCA,
		ReadyWatermark:  *readyWatermark,
		EnableChaos:     *chaos,
		DisableTracing:  *noTrace,
		SLOInterval:     *sloInterval,
	}
	if *sloSpecs != "" {
		for _, o := range strings.Split(*sloSpecs, ",") {
			if o = strings.TrimSpace(o); o != "" {
				cfg.SLOObjectives = append(cfg.SLOObjectives, o)
			}
		}
	}
	if !*quiet {
		cfg.RequestLog = log.Printf
	}
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	if rec, ok := svc.StoreRecovery(); ok {
		log.Printf("mediatord: recovered %d sessions from %s (%d snapshot + %d wal records, %d torn bytes discarded)",
			svc.Stats().SessionsCreated, *dataDir, rec.SnapshotRecords, rec.WALRecords, rec.TornBytes)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("mediatord: serving session farm on %s", *addr)
	err = svc.ListenAndServe(ctx, *addr)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("mediatord: drained, bye")
	return nil
}
