// Command swim-serve is the deterministic sweep-serving daemon: a
// long-running HTTP/JSON service that owns the trained registry workloads
// and answers sweep/scenario/table1/fig2 requests from a bounded job queue,
// splitting the Monte-Carlo worker budget fairly across concurrent jobs.
// Responses are the same versioned result records the CLIs emit — a request
// answered over HTTP is bit-identical to the equivalent swim-scenario
// invocation, and repeated requests are served from a canonical-hash cache.
//
// Usage:
//
//	swim-serve [-addr 127.0.0.1:8080] [-jobs 2] [-queue 64] [-workers N]
//	           [-state dir] [-drain 30s] [-portfile path] [-job-ttl 1h]
//	           [-coordinator url1,url2,...] [-shard-trials N] [-shard-target 1s]
//	           [-cache-max-entries N] [-cache-max-bytes N] [-debug-addr addr]
//
// With -coordinator, the daemon computes nothing locally: each job's trial
// space is split into ranges dispatched as POST /v1/shards calls across the
// listed worker daemons (any swim-serve serves shards), failed shards are
// retried on surviving workers, and the merged envelope is byte-identical
// to single-node execution. Completed shards are journalled under
// -state/coord so a killed coordinator resumes instead of recomputing.
// Shard sizes autotune toward -shard-target per round trip unless
// -shard-trials pins them (negative -shard-target disables tuning).
//
// Observability: GET /v1/metrics serves the flat JSON snapshot by default
// and the Prometheus text exposition under Accept: text/plain (or
// ?format=prometheus); GET /v1/jobs/{id}/events streams job progress as
// Server-Sent Events. -debug-addr exposes net/http/pprof on a separate
// listener (off by default, never mounted on the API mux).
//
// Submit work as JSON request records:
//
//	curl -s -XPOST localhost:8080/v1/jobs -d '{
//	  "kind": "scenario", "workload": "lenet",
//	  "scenarios": "none;drift", "times": [0, 3600],
//	  "policies": ["swim", "noverify"], "trials": 8, "seed": 4000
//	}'
//	curl -s "localhost:8080/v1/jobs/job-1?wait=1"
//	curl -s localhost:8080/v1/jobs/job-1/result
//
// -state points at a directory of serialized workload states (written by
// swim-train -state or a previous daemon run), so startup serves from
// restored models instead of retraining. SIGINT/SIGTERM drain gracefully:
// intake stops, in-flight jobs finish, and after -drain the rest are
// cancelled. Environment: SWIM_MC / SWIM_EVAL / SWIM_FAST size the
// default workloads exactly as they do for the CLIs.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"swim/internal/cli"
	"swim/internal/serve"
)

func main() {
	c := cli.New("swim-serve", cli.State)
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	jobs := flag.Int("jobs", 2, "jobs executed concurrently (each gets workers/jobs worker goroutines)")
	queue := flag.Int("queue", 64, "queued-job backlog bound (further submissions get 503)")
	workers := flag.Int("workers", 0, "total Monte-Carlo worker budget split across jobs (0 = all CPUs)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain window before in-flight jobs are cancelled")
	portfile := flag.String("portfile", "", "write the bound address to this file once listening (for scripts)")
	coordinator := flag.String("coordinator", "",
		"comma-separated worker base URLs: run as a coordinator, sharding jobs across them instead of computing locally")
	shardTrials := flag.Int("shard-trials", 0, "trials per dispatched shard in coordinator mode (0 = auto)")
	shardTarget := flag.Duration("shard-target", 0,
		"coordinator shard-size autotuning target duration per shard (0 = 1s default, negative = disable tuning)")
	jobTTL := flag.Duration("job-ttl", 0, "evict finished jobs from listings after this long (0 = 1h, negative = never)")
	cacheEntries := flag.Int("cache-max-entries", 0, "LRU bound on result-cache entries (0 = unbounded)")
	cacheBytes := flag.Int64("cache-max-bytes", 0, "LRU bound on encoded result-cache bytes (0 = unbounded)")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof on this separate address (empty = off; never exposed on the API listener)")
	c.Parse()

	total := *workers
	if total <= 0 {
		total = runtime.NumCPU()
	}
	workerURLs := cli.List(*coordinator)

	s := serve.New(serve.Config{
		MaxConcurrent:   *jobs,
		QueueDepth:      *queue,
		TotalWorkers:    total,
		DrainTimeout:    *drain,
		WorkerURLs:      workerURLs,
		ShardTrials:     *shardTrials,
		ShardTarget:     *shardTarget,
		JobTTL:          *jobTTL,
		StateDir:        c.State,
		CacheMaxEntries: *cacheEntries,
		CacheMaxBytes:   *cacheBytes,
	})

	if *debugAddr != "" {
		// Profiling stays on its own mux and listener: the API surface never
		// gains the pprof routes, and the debug port can stay firewalled.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dl, err := net.Listen("tcp", *debugAddr)
		c.Check(err)
		fmt.Printf("swim-serve pprof on %s\n", dl.Addr())
		go func() { _ = http.Serve(dl, dmux) }()
	}

	l, err := net.Listen("tcp", *addr)
	c.Check(err)
	if len(workerURLs) > 0 {
		fmt.Printf("swim-serve coordinating %d shard workers, listening on %s (%d concurrent jobs)\n",
			len(workerURLs), l.Addr(), *jobs)
	} else {
		fmt.Printf("swim-serve listening on %s (%d workers, %d concurrent jobs)\n",
			l.Addr(), total, *jobs)
	}
	if *portfile != "" {
		c.Check(os.WriteFile(*portfile, []byte(l.Addr().String()), 0o644))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	c.Check(s.Run(ctx, l))
	fmt.Println("swim-serve drained cleanly")
}
