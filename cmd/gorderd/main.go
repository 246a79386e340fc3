// Command gorderd serves vertex orderings over HTTP: an asynchronous
// job queue in front of every ordering and evaluator in the library.
//
//	gorderd -addr :8080 -workers 4 -data ./datasets
//
// API (JSON everywhere; errors use {"error":{"code","message"}}):
//
//	POST /graphs?name=web          upload a graph (binary CSR or edge list)
//	GET  /graphs                   list stored graphs
//	GET  /graphs/{id}              one graph's stats (also name, name@vN, name@latest)
//	POST /graphs/{name}/edges      apply an edit batch {"add_nodes","add","del"}; builds the next version
//	GET  /graphs/{name}/lineage    list a graph's versions and ordering-quality record
//	POST /jobs                     submit {"kind":"order","graph":"web","method":"gorder"}
//	                               or {"kind":"repair","graph":"web"} to repair a decayed ordering
//	GET  /jobs                     list jobs
//	GET  /jobs/{id}                poll a job (queued/running/done/failed/canceled)
//	GET  /jobs/{id}/permutation    download a done order job's permutation
//	POST /query                    run a kernel: {"graph":"web","kernel":"BFS"}
//	POST /query/batch              run up to 256 queries: {"queries":[...]}
//	GET  /healthz                  liveness
//	GET  /metrics                  counters and gauges
//
// Queries execute registry kernels (BFS, SP, PR, Kcore, NQ, Tri) over
// the best stored ordering for the graph — explicit "order", else the
// latest ordering artifact, else natural order; the response reports
// which served it. Results are cached in memory and, for whole-graph
// kernels, materialized in the store. Queries are reads: they run on
// a separate concurrency limit and never wait behind ordering jobs.
//
// On SIGINT/SIGTERM the daemon stops accepting work, lets in-flight
// jobs finish within the grace period, and persists still-queued jobs
// to the manifest file, which the next start replays.
//
// Every graph and ordering lives in a store: uploaded graphs and
// computed ordering permutations are written there, queries run over
// the stored orderings, and repeat order jobs are answered from the
// artifact cache without recomputation. The store is also the only
// graph catalog: every graph reference in a request resolves there.
// With -data-dir the store is durable and served again after a
// restart; without it the store sits in a temporary directory that is
// removed on a clean shutdown.
// Only lineage tips stay resident in memory, so an edit replaces the
// old version instead of adding a copy; superseded versions (name@vN)
// are read from disk on demand without being cached. -mem-budget caps
// the resident tip bytes; least-recently-used tips are evicted and
// transparently reloaded from disk when next needed.
//
// Every upload name is a lineage: the first upload is version 1, and
// each edit batch — or upload of different content under the name —
// appends the next version. Content already stored under any name
// keeps its one blob. A bare name (or name@latest) always resolves to
// the tip, so queries never see a stale graph, and name@vN pins an old
// version. -data preloads a dataset directory through the same ingest
// path as uploads, one lineage per file stem. Ordering artifacts are
// carried forward across versions incrementally and their quality
// F(pi) is tracked against the baseline; when the decay ratio falls
// below -decay-threshold a repair job is enqueued automatically
// (suffix re-placement, or a full recompute below -repair-full-below
// or after -max-repairs consecutive repairs).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gorder/internal/fair"
	"gorder/internal/server"
	"gorder/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent ordering jobs")
		queue     = flag.Int("queue", 64, "max queued (not yet running) jobs")
		timeout   = flag.Duration("timeout", 5*time.Minute, "default per-job deadline")
		grace     = flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight jobs")
		dataDir   = flag.String("data", "", "directory of graph files to preload (.bin .graph .txt .el .edges)")
		storeDir  = flag.String("data-dir", "", "persistent store directory for graphs and ordering artifacts ('' = a temporary directory removed on exit)")
		memBudget = flag.Int64("mem-budget", 0, "byte budget for graphs held resident in memory, which holds lineage tips only; evicted tips and superseded versions reload from the store (0 = unlimited)")
		maxUpload = flag.Int64("max-upload-bytes", 32<<20, "max graph upload size in bytes")
		tenRate   = flag.Float64("tenant-rate", 0, "per-tenant request rate limit in req/s, keyed by the X-Tenant header (0 disables)")
		tenBurst  = flag.Int("tenant-burst", 0, "per-tenant rate-limit burst (0 = one second of -tenant-rate)")
		tenWts    = flag.String("tenant-weights", "", "fair-queueing tenant weights as name=weight,... (unlisted tenants weigh 1)")
		tenQueue  = flag.Int("tenant-queue", 0, "max queued jobs per tenant (0 = no per-tenant cap below -queue)")
		manifest  = flag.String("manifest", "gorderd.manifest.json", "queued-job manifest persisted on shutdown ('' disables)")
		queryConc = flag.Int("query-concurrency", 0, "concurrent kernel queries (0 = 8); independent of -workers")
		queryTO   = flag.Duration("query-timeout", 30*time.Second, "default per-query deadline")
		queryCach = flag.Int64("query-cache", 0, "byte budget for the in-memory query result cache (0 = 64 MiB)")
		kWorkers  = flag.Int("kernel-workers", 1, "goroutines per BFS/SP/PR/Tri kernel query (0 = GOMAXPROCS, 1 = serial); results are identical either way")
		decayThr  = flag.Float64("decay-threshold", 0, "enqueue a repair when an ordering's quality decays below this ratio (0 = 0.93)")
		fullBelow = flag.Float64("repair-full-below", 0, "repair by full recompute when decay is below this ratio (0 = 0.85)")
		maxRep    = flag.Int("max-repairs", 0, "suffix repairs between full recomputes (0 = 3)")
		noRepair  = flag.Bool("no-auto-repair", false, "track ordering decay but never enqueue repair jobs automatically")
		verbose   = flag.Bool("v", false, "debug logging")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// removeTemp deletes the store directory when it is a temporary
	// one; fatal runs it too, so a failed start leaves nothing behind.
	removeTemp := func() {}
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		removeTemp()
		os.Exit(1)
	}

	if *kWorkers == 0 {
		*kWorkers = runtime.GOMAXPROCS(0)
	}
	weights, err := fair.ParseWeights(*tenWts)
	if err != nil {
		fatal("parsing -tenant-weights", "err", err)
	}

	dir := *storeDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "gorderd-store-"); err != nil {
			fatal("creating temporary data store", "err", err)
		}
		removeTemp = func() {
			if err := os.RemoveAll(dir); err != nil {
				log.Warn("removing temporary data store", "dir", dir, "err", err)
			}
		}
	}
	st, err := store.Open(store.Config{Dir: dir, MemBudget: *memBudget})
	if err != nil {
		fatal("opening data store", "dir", dir, "err", err)
	}
	log.Info("data store opened", "dir", dir, "temporary", *storeDir == "",
		"graphs", st.GraphCount(), "orders", st.OrderCount(), "mem_budget", *memBudget)

	srv := server.New(server.Config{
		Pool: server.PoolConfig{
			Workers:          *workers,
			QueueDepth:       *queue,
			DefaultTimeout:   *timeout,
			TenantQueueDepth: *tenQueue,
		},
		MaxUpload:         *maxUpload,
		Logger:            log,
		Store:             st,
		TenantRate:        *tenRate,
		TenantBurst:       *tenBurst,
		TenantWeights:     weights,
		QueryConcurrency:  *queryConc,
		QueryTimeout:      *queryTO,
		QueryResultBudget: *queryCach,
		KernelWorkers:     *kWorkers,
		DecayThreshold:    *decayThr,
		RepairFullBelow:   *fullBelow,
		MaxRepairs:        *maxRep,
		DisableAutoRepair: *noRepair,
	})

	if *dataDir != "" {
		n, err := srv.LoadDir(*dataDir)
		if err != nil {
			fatal("loading dataset directory", "dir", *dataDir, "err", err)
		}
		log.Info("datasets preloaded", "dir", *dataDir, "graphs", n)
	}

	srv.Start()

	// Replay jobs a previous instance persisted at shutdown.
	if *manifest != "" {
		reqs, err := server.ReadManifest(*manifest)
		if err != nil {
			fatal("reading job manifest", "path", *manifest, "err", err)
		}
		if len(reqs) > 0 {
			n := srv.Replay(reqs)
			log.Info("manifest replayed", "path", *manifest, "jobs", n, "skipped", len(reqs)-n)
			if err := server.WriteManifest(*manifest, nil); err != nil {
				log.Warn("clearing job manifest", "err", err)
			}
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	// The resolved address goes to stdout as a plain line so scripts
	// (and the smoke test) can find a :0-assigned port.
	fmt.Printf("gorderd listening on %s\n", ln.Addr())
	log.Info("gorderd up", "addr", ln.Addr().String(), "workers", *workers, "queue", *queue)

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Info("shutdown signal received", "grace", *grace)
	case err := <-errCh:
		fatal("http server failed", "err", err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Warn("http shutdown incomplete", "err", err)
	}
	if err := srv.DrainAndPersist(*grace, *manifest); err != nil {
		fatal("drain failed", "err", err)
	}
	if err := st.Close(); err != nil {
		log.Warn("closing data store", "err", err)
	}
	removeTemp()
	log.Info("gorderd stopped")
}
